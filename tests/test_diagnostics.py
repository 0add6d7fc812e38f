import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from illposed.diagnostics import (
    _relative_change,
    bounded_away_from_zero,
    diagnose,
    perturbation_amplification,
    spectrum_decay,
    stability_bound_check,
)
from illposed.errors import InvalidInputError
from illposed.fredholm import heaviside_operator
from illposed.linop import DenseOperator, svd
from test_linop import count_lapack_svd

RNG = np.random.default_rng(1234)


def random_full_rank(rows, cols):
    while True:
        a = RNG.standard_normal((rows, cols))
        if np.linalg.matrix_rank(a) == min(rows, cols):
            return DenseOperator(a)


class TestDiagnose:
    def test_identity_well_posed(self):
        r = diagnose(DenseOperator(np.eye(4)))
        assert r.classification == "WELL_POSED"
        assert r.identifiable
        assert r.numerical_rank == 4
        assert r.condition_number == 1.0
        assert r.stability_constant == 1.0

    def test_ill_conditioned_diagonal(self):
        r = diagnose(DenseOperator(np.diag([1.0, 1e-12])), kappa_threshold=1e8)
        assert r.classification == "ILL_CONDITIONED"
        assert r.identifiable
        assert r.condition_number == pytest.approx(1e12, rel=1e-10)

    def test_row_of_ones_non_identifiable(self):
        r = diagnose(DenseOperator([[1.0, 1.0]]))
        assert r.classification == "NON_IDENTIFIABLE"
        assert not r.identifiable

    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            diagnose(DenseOperator(np.eye(2)), kappa_threshold=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            diagnose(DenseOperator(np.eye(2)), kappa_threshold=bad)

    def test_zero_matrix_is_non_identifiable(self):
        r = diagnose(DenseOperator(np.zeros((2, 3))))
        assert r.numerical_rank == 0
        assert (r.sigma_max, r.sigma_min, r.condition_number) == (0.0, 0.0, math.inf)
        assert r.classification == "NON_IDENTIFIABLE"
        assert not r.identifiable

    def test_spectrum_has_discarded_tail(self):
        r = diagnose(DenseOperator(np.diag([1.0, 1e-20])))
        assert r.numerical_rank == 1
        assert len(r.spectrum) == 2

    def test_decay_exponent_none_for_short_spectrum(self):
        assert diagnose(DenseOperator(np.eye(2))).decay_exponent is None

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, alpha):
        a = np.array([[3.0, 1.0], [0.5, 2.0], [1.0, -1.0]])
        base = diagnose(DenseOperator(a))
        scaled = diagnose(DenseOperator(alpha * a))
        assert scaled.classification == base.classification
        assert scaled.condition_number == pytest.approx(base.condition_number, rel=1e-9)
        assert scaled.condition_number >= 1.0


class TestStabilityBound:
    def test_identity_is_tight(self):
        check = stability_bound_check(
            DenseOperator(np.eye(3)), np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0])
        )
        assert check.holds
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12)

    def test_diagonal_extreme_directions(self):
        a = DenseOperator(np.diag([1.0, 1e-3]))
        check = stability_bound_check(a, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.0, rel=1e-10)
        assert check.holds

    def test_property_sweep(self):
        a = random_full_rank(6, 4)
        for _ in range(1000):
            t1 = RNG.standard_normal(4)
            t2 = RNG.standard_normal(4)
            assert stability_bound_check(a, t1, t2).holds

    def test_tight_along_singular_directions(self):
        a = random_full_rank(6, 4)
        f = svd(a)
        v_max = f.right_vectors[:, 0]
        v_min = f.right_vectors[:, -1]
        check = stability_bound_check(a, v_max + v_min, v_max)
        assert check.holds
        assert check.lhs == pytest.approx(check.rhs, rel=1e-6)

    def test_thetas_whose_square_overflows(self):
        # ||theta||^2 overflows; the bound is scale-invariant, so both sides
        # read ||(0, 1)|| / ||(1, 2)|| = 1 / sqrt(5)
        bound = stability_bound_check(
            DenseOperator(np.eye(2)), np.array([1e160, 1e160]), np.array([1e160, 2e160])
        )
        assert (bound.lhs, bound.rhs, bound.holds) == (
            0.4472135954999579, 0.4472135954999579, True
        )

    @pytest.mark.parametrize("swap", [False, True])
    def test_thetas_whose_difference_overflows(self, swap):
        # theta1 - theta2 = (+-2e308, 0) leaves the float range; both sides
        # are ||(2e308, 0)|| / ||(1e308, 1)|| = 2
        thetas = [np.array([1e308, 1.0]), np.array([-1e308, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = stability_bound_check(DenseOperator(np.eye(2)), *thetas[:: -1 if swap else 1])
        assert (bound.lhs, bound.rhs, bound.holds) == (2.0, 2.0, True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_theta_rejected(self, bad, which):
        thetas = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
        thetas[which][1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            stability_bound_check(DenseOperator(np.eye(2)), *thetas)

    def test_zero_theta2_rejected(self):
        with pytest.raises(InvalidInputError, match="^theta2 must be nonzero$"):
            stability_bound_check(DenseOperator(np.eye(2)), np.ones(2), np.zeros(2))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones(3), r"must have shape \(2,\), got \(3,\)"),
            (np.array([1.0, -math.inf]), "must be finite"),
        ],
        ids=["shape", "finite"],
    )
    @pytest.mark.parametrize("which", [0, 1])
    def test_vector_errors_name_the_argument(self, which, bad, message):
        thetas = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
        thetas[which] = bad
        with pytest.raises(InvalidInputError, match=f"^theta{which + 1} {message}$"):
            stability_bound_check(DenseOperator(np.eye(2)), *thetas)

    def test_products_that_overflow(self):
        # A theta1 = (2e400, 1e200) leaves the float range; both sides are
        # ||(1e200, 0)|| / ||(1e200, 1)|| = 1
        a = DenseOperator(np.diag([1e200, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = stability_bound_check(a, np.array([2e200, 1.0]), np.array([1e200, 1.0]))
        assert (bound.lhs, bound.rhs, bound.holds) == (1.0, 1.0, True)

    def test_products_past_the_float_range_are_answered(self):
        # every entry of theta1 is below 1 and A theta1 overflows unscaled;
        # A is sqrt(2) * 1e308 times an orthogonal matrix, so kappa = 1
        a = DenseOperator([[1e308, 1e308], [1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = stability_bound_check(a, np.array([0.99, 0.99]), np.array([0.5, 0.25]))
        assert bound.lhs == 1.5876523548938537
        assert bound.rhs == pytest.approx(bound.lhs, rel=1e-14)
        assert bound.holds

    def test_theta2_that_vanishes_on_the_common_scale(self):
        # theta2 scales to 0 beside theta1, and so does A theta2: both sides
        # exceed 2^1074, and A is injective, so both are inf
        bound = stability_bound_check(
            DenseOperator(np.eye(2)), np.array([1e308, 0.0]), np.array([5e-324, 0.0])
        )
        assert (bound.lhs, bound.rhs, bound.holds) == (math.inf, math.inf, True)

    def test_products_that_underflow(self):
        # A theta2 = (1e-400, 0) underflows to 0 although theta2 is nonzero;
        # both sides are ||(1e-200, 1e-200)|| / ||(1e-400, 0)|| = sqrt(2) * 1e200
        a = DenseOperator(np.diag([1e-200, 1e-200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = stability_bound_check(a, np.array([1.0, 1.0]), np.array([1e-200, 0.0]))
        expected = 1.4142135623730951e200
        assert abs(bound.lhs - expected) <= 4 * math.ulp(expected)
        assert abs(bound.rhs - expected) <= 4 * math.ulp(expected)
        assert bound.holds

    def test_well_scaled_inputs_take_the_plain_quotients(self):
        # scaling by powers of two is exact on entries of magnitude 1e-3 to
        # 1e3: both sides are the quotients of the unscaled norms, bit for bit
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 3000:
            m, t1, t2 = (
                rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)
                for shape in ((3, 3), 3, 3)
            )
            a = DenseOperator(m)
            report = diagnose(a)
            if not report.identifiable:
                continue
            checked += 1
            a1, a2 = m @ t1, m @ t2
            lhs = math.hypot(*(t1 - t2).tolist()) / math.hypot(*t2.tolist())
            rhs = report.condition_number * (
                math.hypot(*(a1 - a2).tolist()) / math.hypot(*a2.tolist())
            )
            bound = stability_bound_check(a, t1, t2)
            assert (bound.lhs, bound.rhs, bound.holds) == (lhs, rhs, lhs <= rhs * (1 + 1e-10))

    def test_theta_whose_norm_overflows(self):
        # ||theta2|| leaves the float range, which would read both sides as 0
        t1, t2 = np.array([1.5e308, 1.5e308]), np.array([1.5e308, 1.4e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = stability_bound_check(DenseOperator(np.eye(2)), t1, t2)
        assert bound == stability_bound_check(DenseOperator(np.eye(2)), t1 / 1024, t2 / 1024)
        assert bound.lhs == pytest.approx(1e307 / math.hypot(1.5e307, 1.4e307) / 10, rel=1e-15)

    def test_non_identifiable_rejected(self):
        with pytest.raises(InvalidInputError):
            stability_bound_check(DenseOperator([[1.0, 1.0]]), np.ones(2), np.ones(2))

    def test_rank_tolerance_decides_identifiability(self):
        # sigma_min / sigma_max = 1e-12 is kept at the default tolerance
        # (2 * eps) and dropped at rtol 1e-9, as diagnose drops it
        a = DenseOperator(np.diag([1.0, 1e-12]))
        t1, t2 = np.array([1.0, 1.0]), np.array([1.0, 0.0])
        assert stability_bound_check(a, t1, t2).holds
        assert not diagnose(a, rtol=1e-9).identifiable
        with pytest.raises(InvalidInputError, match="identifiable"):
            stability_bound_check(a, t1, t2, rtol=1e-9)


class TestBoundedAwayFromZero:
    def test_diagonal(self):
        assert bounded_away_from_zero(DenseOperator(np.diag([2.0, 5.0]))) == 2.0

    def test_equals_sigma_min(self):
        a = random_full_rank(7, 3)
        assert bounded_away_from_zero(a) == pytest.approx(
            svd(a).singular_values[-1], rel=1e-14
        )

    def test_lower_bound_holds_on_random_directions(self):
        a = random_full_rank(5, 3)
        c = bounded_away_from_zero(a)
        thetas = RNG.standard_normal((3, 10_000))
        thetas /= np.linalg.norm(thetas, axis=0)
        norms = np.linalg.norm(a.matrix @ thetas, axis=0)
        assert np.all(norms >= c * (1 - 1e-10))

    def test_tight_at_minimal_singular_vector(self):
        a = random_full_rank(5, 3)
        c = bounded_away_from_zero(a)
        v_min = svd(a).right_vectors[:, -1]
        assert np.linalg.norm(a.matrix @ v_min) == pytest.approx(c, rel=1e-10)

    def test_non_identifiable_rejected(self):
        with pytest.raises(InvalidInputError):
            bounded_away_from_zero(DenseOperator([[1.0, 1.0]]))


class TestPerturbationAmplification:
    def test_identity_no_amplification(self):
        amp = perturbation_amplification(
            DenseOperator(np.eye(2)), np.array([1.0, 2.0]), np.array([1.5, 1.0])
        )
        assert amp == pytest.approx(1.0)

    def test_closed_form_along_singular_directions(self):
        a = DenseOperator(np.diag([1.0, 1e-3]))
        amp = perturbation_amplification(
            a, np.array([1.0, 0.0]), np.array([1.0, 1e-6])
        )
        assert amp == pytest.approx(1000.0, rel=1e-6)

    def test_never_exceeds_condition_number(self):
        # reference data in the range of the operator: the classical regime
        a = random_full_rank(5, 3)
        f = svd(a)
        kappa = f.singular_values[0] / f.singular_values[-1]
        for _ in range(200):
            d = a.matrix @ RNG.standard_normal(3)
            d2 = d + 1e-4 * RNG.standard_normal(5)
            amp = perturbation_amplification(a, d, d2)
            assert amp <= kappa * (1 + 1e-8)

    def test_data_whose_square_overflows(self):
        # ||d||^2 overflows: norms that square read inf, and the ratio NaN
        amp = perturbation_amplification(
            DenseOperator(np.eye(2)), np.array([1e160, 1e160]), np.array([1e160, 2e160])
        )
        assert amp == 1.0

    @pytest.mark.parametrize("swap", [False, True])
    def test_data_whose_difference_overflows(self, swap):
        # the data and the solution both change by (+-2e308, 0), so the
        # relative changes are both 2 and their ratio is 1
        data = [np.array([1e308, 1.0]), np.array([-1e308, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            amp = perturbation_amplification(DenseOperator(np.eye(2)), *data[:: -1 if swap else 1])
        assert amp == 1.0

    def test_data_whose_norm_overflows(self):
        data = [np.array([1.5e308, 1.5e308]), np.array([1.5e308, 1.4e308])]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            amp = perturbation_amplification(DenseOperator(np.eye(2)), *data)
        assert amp == 1.0

    def test_non_identifiable_rejected(self):
        with pytest.raises(InvalidInputError, match="requires an identifiable operator"):
            perturbation_amplification(DenseOperator([[1.0, 1.0]]), np.ones(1), np.zeros(1))

    @pytest.mark.parametrize(
        "data, data_perturbed, message",
        [
            (np.ones(50), np.ones(50), "^the perturbation must be nonzero$"),
            (np.zeros(50), np.ones(50), "^data must be nonzero$"),
        ],
        ids=["perturbation", "data"],
    )
    def test_data_errors_come_before_any_lapack_call(
        self, monkeypatch, data, data_perturbed, message
    ):
        calls = count_lapack_svd(monkeypatch)
        with pytest.raises(InvalidInputError, match=message):
            perturbation_amplification(DenseOperator(np.eye(50)), data, data_perturbed)
        assert calls == []

    def test_equal_data_rejected(self):
        with pytest.raises(InvalidInputError, match="^the perturbation must be nonzero$"):
            perturbation_amplification(DenseOperator(np.eye(2)), np.ones(2), np.ones(2))

    @pytest.mark.parametrize(
        "a, data, message",
        [
            (np.eye(2), np.zeros(2), "^data must be nonzero$"),
            # data orthogonal to the range: the pseudo-inverse solution is 0
            ([[1.0], [0.0]], np.array([0.0, 1.0]), "^the reference solution must be nonzero$"),
        ],
        ids=["data", "solution"],
    )
    def test_zero_reference_rejected(self, a, data, message):
        with pytest.raises(InvalidInputError, match=message):
            perturbation_amplification(DenseOperator(a), data, np.ones(2))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones(3), r"must have shape \(2,\), got \(3,\)"),
            (np.array([1.0, math.nan]), "must be finite"),
        ],
        ids=["shape", "finite"],
    )
    @pytest.mark.parametrize("which, name", [(0, "data"), (1, "data_perturbed")])
    def test_vector_errors_name_the_argument(self, which, name, bad, message):
        data = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
        data[which] = bad
        with pytest.raises(InvalidInputError, match=f"^{name} {message}$"):
            perturbation_amplification(DenseOperator(np.eye(2)), *data)

    def test_grows_with_grid_on_integral_operator(self):
        # finer grids resolve the oscillatory perturbation better, so the
        # observed amplification climbs toward its continuum value
        from illposed.fredholm import ramp_rhs

        amps = []
        for n in (64, 128, 256):
            amps.append(
                perturbation_amplification(
                    heaviside_operator(n), ramp_rhs(n), ramp_rhs(n, 8)
                )
            )
        assert amps[0] < amps[1] < amps[2]


SCALE_OPERATOR = random_full_rank(4, 3)


def small_vectors(n):
    # multiples of 1/8 keep every product and difference far from the ends
    # of the float range at any scale 2^k with |k| <= 500
    return st.lists(st.integers(-64, 64), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=float) / 8
    )


@given(
    small_vectors(3), small_vectors(3), small_vectors(4), small_vectors(4), st.integers(-500, 500)
)
def test_relative_changes_are_scale_free(theta1, theta2, data, data_perturbed, k):
    assume(np.any(theta2) and np.any(data) and np.any(data != data_perturbed))
    a = SCALE_OPERATOR
    # bit for bit: every input is scaled by a power of two before use
    base = stability_bound_check(a, theta1, theta2)
    assert stability_bound_check(a, np.ldexp(theta1, k), np.ldexp(theta2, k)) == base
    amp = perturbation_amplification(a, data, data_perturbed)
    assert perturbation_amplification(a, np.ldexp(data, k), np.ldexp(data_perturbed, k)) == amp


@given(small_vectors(3), small_vectors(3), st.integers(-400, 400))
def test_stability_bound_is_bit_identical_under_operator_scaling(theta1, theta2, k):
    # the entries of A lie in [2^-4, 2^2], so 2^k A stays normal and inside
    # the range, about [1e-138, 1e138], where LAPACK factors it unscaled
    assume(np.any(theta2))
    base = stability_bound_check(SCALE_OPERATOR, theta1, theta2)
    scaled = DenseOperator(np.ldexp(SCALE_OPERATOR.matrix, k))
    assert stability_bound_check(scaled, theta1, theta2) == base


def test_relative_change_past_the_float_range_is_inf():
    # v is nonzero but scales to 0 beside u: the quotient exceeds 2^1074
    assert _relative_change(np.array([1e308, 0.0]), np.array([0.0, 5e-324]), "v") == math.inf
    with pytest.raises(InvalidInputError, match="^v must be nonzero$"):
        _relative_change(np.ones(2), np.zeros(2), "v")


class TestSpectrumDecay:
    def test_exact_power_law(self):
        k = np.arange(1, 21, dtype=float)
        assert spectrum_decay(1.0 / k) == pytest.approx(-1.0, abs=1e-6)

    def test_constant_spectrum(self):
        assert spectrum_decay(np.ones(10)) == pytest.approx(0.0, abs=1e-12)

    def test_cumulative_operator_near_inverse_first_power(self):
        s = svd(heaviside_operator(256)).singular_values
        assert spectrum_decay(s) == pytest.approx(-1.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            spectrum_decay([1.0, 0.5, 0.2])
        with pytest.raises(InvalidInputError):
            spectrum_decay([1.0, 0.5, 0.2, -0.1])
        with pytest.raises(InvalidInputError):
            spectrum_decay([1.0, 0.5, 0.6, 0.4])


class TestConditioningGrowth:
    def test_heaviside_condition_number_doubles_with_n(self):
        # kappa is about 4n/pi, so it crosses any fixed threshold as the
        # grid refines even though every finite n is formally well-posed
        kappas = {}
        for n in (64, 128):
            r = diagnose(heaviside_operator(n), kappa_threshold=50.0)
            kappas[n] = r.condition_number
            assert r.classification == "ILL_CONDITIONED"
        assert 1.8 <= kappas[128] / kappas[64] <= 2.2
