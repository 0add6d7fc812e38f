import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from illposed.diagnostics import (
    Classification,
    bounded_away_from_zero,
    diagnose,
    perturbation_amplification,
    spectrum_decay,
    stability_bound_check,
)
from illposed.errors import InvalidInputError
from illposed.fredholm import heaviside_operator
from illposed.linop import DenseOperator, svd

RNG = np.random.default_rng(1234)


def random_full_rank(rows, cols):
    while True:
        a = RNG.standard_normal((rows, cols))
        if np.linalg.matrix_rank(a) == min(rows, cols):
            return DenseOperator(a)


class TestDiagnose:
    def test_identity_well_posed(self):
        r = diagnose(DenseOperator(np.eye(4)))
        assert r.classification is Classification.WELL_POSED
        assert r.identifiable
        assert r.numerical_rank == 4
        assert r.condition_number == 1.0
        assert r.stability_constant == 1.0

    def test_ill_conditioned_diagonal(self):
        r = diagnose(DenseOperator(np.diag([1.0, 1e-12])), kappa_threshold=1e8)
        assert r.classification is Classification.ILL_CONDITIONED
        assert r.identifiable
        assert r.condition_number == pytest.approx(1e12, rel=1e-10)

    def test_row_of_ones_non_identifiable(self):
        r = diagnose(DenseOperator([[1.0, 1.0]]))
        assert r.classification is Classification.NON_IDENTIFIABLE
        assert not r.identifiable

    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            diagnose(DenseOperator(np.eye(2)), kappa_threshold=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            diagnose(DenseOperator(np.eye(2)), kappa_threshold=bad)

    def test_report_dict_keys(self):
        d = diagnose(DenseOperator(np.eye(4))).to_dict()
        assert list(d) == [
            "identifiable",
            "numerical_rank",
            "sigma_max",
            "sigma_min",
            "condition_number",
            "stability_constant",
            "classification",
            "spectrum",
            "decay_exponent",
        ]

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
        assert scaled.classification is base.classification
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

    def test_zero_theta2_rejected(self):
        with pytest.raises(InvalidInputError):
            stability_bound_check(DenseOperator(np.eye(2)), np.ones(2), np.zeros(2))

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

    def test_equal_data_rejected(self):
        with pytest.raises(InvalidInputError):
            perturbation_amplification(DenseOperator(np.eye(2)), np.ones(2), np.ones(2))

    def test_grows_with_grid_on_integral_operator(self):
        # finer grids resolve the oscillatory perturbation better, so the
        # observed amplification climbs toward its continuum value
        from illposed.fredholm import Grid, ramp_rhs

        amps = []
        for n in (64, 128, 256):
            g = Grid(n)
            amps.append(
                perturbation_amplification(
                    heaviside_operator(n), ramp_rhs(g), ramp_rhs(g, 8)
                )
            )
        assert amps[0] < amps[1] < amps[2]


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
            assert r.classification is Classification.ILL_CONDITIONED
        assert 1.8 <= kappas[128] / kappas[64] <= 2.2
