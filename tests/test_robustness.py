import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from illposed.errors import InvalidInputError, NumericalFailureError
from illposed.robustness import (
    MEAN,
    MEDIAN,
    EmpiricalDistribution,
    Functional,
    FunctionalKind,
    contaminate,
    evaluate,
    influence_function,
    influence_profile,
    sensitivity_attack,
    trimmed_mean,
)

UNIFORM9 = EmpiricalDistribution.from_atoms([(float(k), 1 / 9) for k in range(1, 10)])


def dist(*atoms):
    return EmpiricalDistribution.from_atoms(atoms)


def ladder_influence(t, f, y):
    """Difference quotients at eps = 1e-3, 1e-4, 1e-5, Richardson-extrapolated.

    The numerical oracle for influence_function: None when the two
    extrapolants differ by more than 1e-3 in relative spread, i.e. when
    the quotient sequence has not converged.
    """
    base = evaluate(t, f)
    q = [(evaluate(t, contaminate(f, eps, y)) - base) / eps for eps in (1e-3, 1e-4, 1e-5)]
    # eliminate the O(eps) error term; ladder ratio is 10
    r12 = (10.0 * q[1] - q[0]) / 9.0
    r23 = (10.0 * q[2] - q[1]) / 9.0
    floor = 1e-6 * (1.0 + abs(y) + abs(base))
    if abs(r12 - r23) / max(abs(r12), abs(r23), floor) > 1e-3:
        return None
    return r23


@st.composite
def distributions(draw):
    n = draw(st.integers(1, 8))
    locs = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n, unique=True
        )
    )
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    w = np.array(raw)
    return EmpiricalDistribution(np.array(locs), w / w.sum())


class TestEmpiricalDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            EmpiricalDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            EmpiricalDistribution(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_locations_must_be_finite(self):
        with pytest.raises(InvalidInputError):
            EmpiricalDistribution(np.array([np.inf]), np.array([1.0]))

    def test_atoms_sorted_by_location(self):
        d = dist((3.0, 0.25), (1.0, 0.5), (2.0, 0.25))
        assert d.atoms == ((1.0, 0.5), (2.0, 0.25), (3.0, 0.25))


class TestFunctionalKind:
    def test_trim_fraction_range(self):
        trimmed_mean(0.0)
        trimmed_mean(0.49)
        with pytest.raises(InvalidInputError):
            trimmed_mean(0.5)
        with pytest.raises(InvalidInputError):
            trimmed_mean(-0.1)

    def test_trim_fraction_only_for_trimmed(self):
        with pytest.raises(InvalidInputError):
            FunctionalKind(Functional.MEAN, trim_fraction=0.1)


class TestEvaluate:
    def test_mean(self):
        assert evaluate(MEAN, dist((1, 1 / 3), (2, 1 / 3), (3, 1 / 3))) == pytest.approx(2.0)

    def test_median_smallest_location_convention(self):
        assert evaluate(MEDIAN, dist((0.0, 0.5), (10.0, 0.5))) == 0.0

    def test_median_middle_atom(self):
        assert evaluate(MEDIAN, UNIFORM9) == 5.0

    def test_trimmed_mean_drops_tails(self):
        d = dist((-100.0, 0.25), (1.0, 0.5), (100.0, 0.25))
        assert evaluate(trimmed_mean(0.25), d) == pytest.approx(1.0)

    def test_trimmed_mean_splits_atoms(self):
        # trimming 0.25 from each side of two half atoms keeps half of each
        d = dist((0.0, 0.5), (10.0, 0.5))
        assert evaluate(trimmed_mean(0.25), d) == pytest.approx(5.0)

    def test_zero_trim_is_mean(self):
        assert evaluate(trimmed_mean(0.0), UNIFORM9) == pytest.approx(
            evaluate(MEAN, UNIFORM9)
        )


class TestContaminate:
    def test_two_point_mixture(self):
        q = contaminate(dist((0.0, 1.0)), 0.5, 1.0)
        assert q.atoms == ((0.0, 0.5), (1.0, 0.5))

    def test_merges_existing_atom(self):
        q = contaminate(dist((0.0, 0.5), (1.0, 0.5)), 0.2, 1.0)
        assert list(q.locations) == [0.0, 1.0]
        assert q.weights == pytest.approx([0.4, 0.6])

    def test_eps_out_of_range(self):
        with pytest.raises(InvalidInputError):
            contaminate(UNIFORM9, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            contaminate(UNIFORM9, 1.0, 1.0)

    def test_total_variation_distance_is_eps(self):
        eps = 0.125
        q = contaminate(dist((0.0, 0.5), (2.0, 0.5)), eps, 7.0)
        # TV distance between F and (1-eps) F + eps delta_y for y outside F
        tv = 0.5 * (0.5 * eps + 0.5 * eps + eps)
        assert tv == pytest.approx(eps)
        assert sum(w for _, w in q.atoms) == pytest.approx(1.0)

    @given(distributions(), st.floats(1e-3, 0.99), st.floats(-50, 50))
    def test_mean_linearity(self, f, eps, y):
        lhs = evaluate(MEAN, contaminate(f, eps, y))
        rhs = (1 - eps) * evaluate(MEAN, f) + eps * y
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestInfluenceFunction:
    def test_mean_closed_form(self):
        f = dist((1.0, 0.5), (3.0, 0.5))  # mean 2
        assert influence_function(MEAN, f, 10.0) == pytest.approx(8.0, abs=1e-8)

    def test_mean_at_its_own_value(self):
        f = dist((1.0, 0.5), (3.0, 0.5))
        assert influence_function(MEAN, f, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_median_bounded_in_probe(self):
        v100 = influence_function(MEDIAN, UNIFORM9, 100.0)
        v1e6 = influence_function(MEDIAN, UNIFORM9, 1e6)
        assert abs(v100) <= 10.0
        assert v100 == pytest.approx(v1e6, abs=1e-8)

    def test_trimmed_closed_form(self):
        # at y = 10 the contamination is trimmed away and shifts 0.5 eps of
        # kept mass from -1 to 1: T = 2 eps
        f = dist((-1.0, 0.5), (1.0, 0.5))
        assert influence_function(trimmed_mean(0.25), f, 10.0) == pytest.approx(2.0, abs=1e-12)

    def test_median_away_from_tie_is_zero(self):
        for y in (-1e6, 0.5, 5.0, 5.5, 9.0, 1e6):
            assert influence_function(MEDIAN, UNIFORM9, y) == 0.0

    def test_median_on_half_tie(self):
        # cumulative weight 1/2 at 0: contamination above 0 moves the median
        f = dist((0.0, 0.5), (10.0, 0.5))
        for y in (5.0, 10.0, 100.0):
            with pytest.raises(NumericalFailureError, match="converge"):
                influence_function(MEDIAN, f, y)
        for y in (-5.0, 0.0):
            assert influence_function(MEDIAN, f, y) == 0.0

    def test_non_finite_location_rejected(self):
        for y in (np.inf, -np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                influence_function(MEAN, UNIFORM9, y)

    def test_matches_ladder_where_it_converges(self):
        rng = np.random.default_rng(20240601)
        kinds = [MEAN, MEDIAN] + [trimmed_mean(a) for a in (0.0, 0.1, 0.25, 0.4)]
        compared = 0
        for _ in range(150):
            n = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                locs = np.unique(np.round(rng.normal(0.0, 10.0, n), 3))
            else:
                locs = np.unique(rng.integers(-5, 6, n)).astype(float)
            # equal weights put cumulative edges exactly on trim levels and 1/2
            raw = rng.uniform(0.05, 1.0, locs.size) if rng.random() < 0.5 else np.ones(locs.size)
            f = EmpiricalDistribution(locs, raw / raw.sum())
            probes = np.concatenate(
                [locs, 0.5 * (locs[1:] + locs[:-1]), [locs[0] - 3.0, locs[-1] + 3.0]]
            )
            for t in kinds:
                for y in probes:
                    want = ladder_influence(t, f, float(y))
                    if want is None:
                        continue
                    scale = 1.0 + abs(y) + abs(evaluate(t, f))
                    got = influence_function(t, f, float(y))
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-6 * scale)
                    compared += 1
        assert compared > 5000

    @given(st.floats(-1e6, 1e6))
    def test_mean_influence_is_residual(self, y):
        mu = evaluate(MEAN, UNIFORM9)
        got = influence_function(MEAN, UNIFORM9, y)
        assert got + mu == pytest.approx(y, abs=1e-8, rel=1e-8)


class TestInfluenceProfile:
    PROBES = np.array([-1e6, -1e4, -100.0, -10.0, 10.0, 100.0, 1e4, 1e6])

    def test_mean_unbounded(self):
        profile = influence_profile(MEAN, UNIFORM9, self.PROBES)
        assert profile.unbounded_flag
        assert profile.gross_error_sensitivity == np.inf

    def test_median_bounded(self):
        profile = influence_profile(MEDIAN, UNIFORM9, self.PROBES)
        assert not profile.unbounded_flag
        assert np.isfinite(profile.gross_error_sensitivity)

    def test_trimmed_mean_bounded(self):
        profile = influence_profile(trimmed_mean(0.25), UNIFORM9, self.PROBES)
        assert not profile.unbounded_flag
        assert np.isfinite(profile.gross_error_sensitivity)

    def test_asymptotic_variance_of_mean_is_variance(self):
        f = dist((-1.0, 0.5), (1.0, 0.5))
        profile = influence_profile(MEAN, f, np.array([-2.0, 0.0, 2.0]))
        assert profile.asymptotic_variance == pytest.approx(1.0, abs=1e-8)

    def test_asymptotic_variance_matches_population_variance(self):
        mu = evaluate(MEAN, UNIFORM9)
        var = float(np.dot(UNIFORM9.weights, (UNIFORM9.locations - mu) ** 2))
        profile = influence_profile(MEAN, UNIFORM9, np.array([1.0, 5.0, 9.0]))
        assert profile.asymptotic_variance == pytest.approx(var, abs=1e-8)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_trimmed_profile_of_large_normal_sample(self, seed):
        # alpha * m is an integer, so cumulative edges sit on both trim levels,
        # and atoms of weight 2e-4 are crossed by a contamination step of 1e-3
        m, t, eps = 5000, trimmed_mean(0.25), 1e-7
        x = np.random.default_rng(seed).standard_normal(m)
        f = EmpiricalDistribution(x, np.full(m, 1 / m))
        probes = np.geomspace(0.5, 50.0, 16)
        profile = influence_profile(t, f, probes)
        assert not profile.unbounded_flag
        base = evaluate(t, f)
        # the first kink past eps = 0+ is at eps ~ 1/m, so one step of 1e-7
        # gives the right slope up to rounding
        for y, got in zip(probes, profile.values):
            want = (evaluate(t, contaminate(f, eps, y)) - base) / eps
            assert got == pytest.approx(want, abs=1e-6)

    def test_probes_must_be_sorted(self):
        with pytest.raises(InvalidInputError):
            influence_profile(MEAN, UNIFORM9, np.array([1.0, -1.0]))


class TestSensitivityAttack:
    def test_closed_form_contamination_point(self):
        f = dist((-1.0, 0.5), (1.0, 0.5))  # mean 0
        result = sensitivity_attack(f, 0.01, 5.0)
        assert result.y == pytest.approx(500.0)
        assert result.achieved == pytest.approx(5.0, abs=1e-10)
        assert result.distance == 0.01

    def test_trivial_target(self):
        f = dist((2.0, 1.0))
        result = sensitivity_attack(f, 0.5, 2.0)
        assert result.y == pytest.approx(2.0)
        assert result.distance == 0.5

    def test_zero_eps_rejected(self):
        with pytest.raises(InvalidInputError):
            sensitivity_attack(UNIFORM9, 0.0, 1.0)

    @given(distributions(), st.floats(1e-3, 0.99), st.floats(-1e4, 1e4))
    def test_hits_any_target_at_any_distance(self, f, eps, target):
        result = sensitivity_attack(f, eps, target)
        assert result.achieved == pytest.approx(target, abs=1e-8, rel=1e-8)
        assert result.distance == eps
