import math
from bisect import bisect_left
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from illposed.errors import InvalidInputError, NumericalFailureError
from illposed.robustness import (
    MEAN,
    MEDIAN,
    EmpiricalDistribution,
    FunctionalKind,
    contaminate,
    evaluate,
    influence_function,
    influence_profile,
    sensitivity_attack,
    trimmed_mean,
)

UNIFORM9 = EmpiricalDistribution([float(k) for k in range(1, 10)], [1 / 9] * 9)


def dist(*atoms):
    return EmpiricalDistribution([a[0] for a in atoms], [a[1] for a in atoms])


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


@st.composite
def tied_rows(draw):
    """Rows (locations, weights) that repeat locations drawn from a small pool.

    Integer weights over at most 40 put every cumulative edge on a trim
    level of 0.1, 0.25 or 0.4 (or on 1/2) or at least 1/400 from it, so no
    kink of the contaminated functional lies below the ladder's eps = 1e-3.
    """
    pool = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4, unique=True))
    locs = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10))
    raw = draw(st.lists(st.integers(1, 4), min_size=len(locs), max_size=len(locs)))
    return [float(x) for x in locs], [r / sum(raw) for r in raw]


def merged_twin(locations, weights):
    """The same distribution written with one row per location."""
    rows: dict[float, list[float]] = {}
    for x, w in zip(locations, weights):
        rows.setdefault(x, []).append(w)
    return EmpiricalDistribution(list(rows), [math.fsum(ws) for ws in rows.values()])


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

    def test_weights_whose_sum_overflows(self):
        with pytest.raises(InvalidInputError, match="sum to 1 within 1e-12, got inf"):
            EmpiricalDistribution([1.0, 2.0], [1.7e308, 1.7e308])

    def test_atoms_sorted_by_location(self):
        d = dist((3.0, 0.25), (1.0, 0.5), (2.0, 0.25))
        assert tuple(zip(d.locations, d.weights)) == ((1.0, 0.5), (2.0, 0.25), (3.0, 0.25))

    @pytest.mark.parametrize(
        "locations, weights",
        [
            (np.array([[0.0, 1.0], [2.0, 3.0]]), np.full((2, 2), 0.25)),
            (np.array([[0.0], [1.0]]), np.array([[0.5], [0.5]])),
            (np.array([[0.0], [1.0]]), np.array([0.5, 0.5])),
            ([[0.0], [1.0]], [0.5, 0.5]),
            ([0.0, 1.0], [1.0]),
            (["a", "b"], [0.5, 0.5]),
            ([0.0, 1.0], [0.5, None]),
            ([], []),
            (np.array([]), np.array([])),
        ],
        ids=["2-d", "column", "column-locations", "nested-list", "lengths", "text", "none",
             "empty", "empty-array"],
    )
    def test_malformed_input_is_invalid(self, locations, weights):
        with pytest.raises(InvalidInputError):
            EmpiricalDistribution(locations, weights)

    def test_tied_locations_merge_into_one_atom(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 40).astype(float)
        w = rng.uniform(0.5, 1.0, 40)
        w /= w.sum()
        f = EmpiricalDistribution(x, w)
        assert f.locations == (0.0, 1.0, 2.0, 3.0)
        assert f.weights == tuple(math.fsum(w[x == v].tolist()) for v in f.locations)

    def test_fields_are_tuples_of_floats(self):
        f = EmpiricalDistribution(np.array([2, 1]), [0.25, np.float64(0.75)])
        assert f.locations == (1.0, 2.0) and f.weights == (0.75, 0.25)
        assert all(type(v) is float for v in f.locations + f.weights)


class TestFunctionalKind:
    @pytest.mark.parametrize(
        "fraction, valid",
        [(0.0, True), (0.49, True), (None, True), (0.5, False), (-0.1, False),
         (math.nan, False), (math.inf, False), (-math.inf, False)],
    )
    def test_trim_fraction_range(self, fraction, valid):
        # trimmed_mean builds the record for a number; the record for None is MEDIAN
        message = r"trim_fraction must lie in \[0, 0.5\)"
        for build in (FunctionalKind,) if fraction is None else (FunctionalKind, trimmed_mean):
            if valid:
                assert build(fraction).trim_fraction is fraction
            else:
                with pytest.raises(InvalidInputError, match=message):
                    build(fraction)

    def test_median_is_the_kind_without_a_trim_fraction(self):
        assert MEDIAN.trim_fraction is None
        assert FunctionalKind(None) == MEDIAN


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

    def test_trimmed_mean_past_the_float_range_fails(self):
        # the kept sum is finite; dividing it by 1 - 2 alpha passes the float range
        top = 1.7976931348623157e308
        f = EmpiricalDistribution([math.nextafter(top, 0), top], [0.5, 0.5 + 1e-13])
        with pytest.raises(NumericalFailureError, match="^the functional overflows the float"):
            evaluate(trimmed_mean(0.25), f)

    def test_mean_is_the_exact_weighted_sum(self):
        f = dist((0.1, 0.25), (0.7, 0.5), (1e16, 0.25))
        want = math.fsum(x * w for x, w in zip(f.locations, f.weights))
        assert evaluate(MEAN, f) == want
        assert evaluate(trimmed_mean(0.0), f) == want

    def test_mean_past_the_float_range_fails(self):
        # weights sum to 1 + 9e-13, inside the tolerance, so the mean overflows
        top = 1.7976931348623157e308
        f = dist((top, 0.3333333333336333), (top, 0.3333333333336333), (top, 0.3333333333336334))
        with pytest.raises(NumericalFailureError, match="^the functional overflows the float"):
            evaluate(MEAN, f)


class TestContaminate:
    def test_two_point_mixture(self):
        q = contaminate(dist((0.0, 1.0)), 0.5, 1.0)
        assert tuple(zip(q.locations, q.weights)) == ((0.0, 0.5), (1.0, 0.5))

    def test_merges_existing_atom(self):
        q = contaminate(dist((0.0, 0.5), (1.0, 0.5)), 0.2, 1.0)
        assert list(q.locations) == [0.0, 1.0]
        assert q.weights == pytest.approx([0.4, 0.6])

    def test_eps_out_of_range(self):
        with pytest.raises(InvalidInputError):
            contaminate(UNIFORM9, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            contaminate(UNIFORM9, 1.0, 1.0)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_non_finite_location_rejected(self, y):
        with pytest.raises(InvalidInputError, match="contamination location must be finite"):
            contaminate(UNIFORM9, 0.5, y)

    def test_total_variation_distance_is_eps(self):
        eps = 0.125
        q = contaminate(dist((0.0, 0.5), (2.0, 0.5)), eps, 7.0)
        # TV distance between F and (1-eps) F + eps delta_y for y outside F
        tv = 0.5 * (0.5 * eps + 0.5 * eps + eps)
        assert tv == pytest.approx(eps)
        assert sum(w for _, w in zip(q.locations, q.weights)) == pytest.approx(1.0)

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

    @pytest.mark.parametrize("x", [3.0, 1e6 + 0.1, 1e150, 8e307])
    def test_atom_over_both_trim_levels_has_zero_influence(self, x):
        # the trimmed mean stays at x under any small contamination, to the last bit
        f = dist((-5.0, 0.25), (x, 0.5), (2.0 * x, 0.25))
        profile = influence_profile(trimmed_mean(0.4), f, [-10.0, 0.5, x, 1.7e308])
        assert profile.values == (0.0, 0.0, 0.0, 0.0)
        assert profile.asymptotic_variance == 0.0

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

    @given(tied_rows())
    def test_tied_rows_match_ladder_where_it_converges(self, rows):
        f = EmpiricalDistribution(*rows)
        locs = f.locations
        mids = [0.5 * (a + b) for a, b in zip(locs, locs[1:])]
        probes = [*locs, *mids, locs[0] - 3.0, locs[-1] + 3.0]
        for t in [MEAN, MEDIAN] + [trimmed_mean(a) for a in (0.0, 0.1, 0.25, 0.4)]:
            for y in probes:
                want = ladder_influence(t, f, y)
                if want is not None:
                    scale = 1.0 + abs(y) + abs(evaluate(t, f))
                    got = influence_function(t, f, y)
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-6 * scale)

    def test_zero_trim_on_drifted_prefix_sums_is_the_mean(self):
        # the naive prefix sums end 1.5e-12 below 1, past the tolerance the fsum meets
        f = EmpiricalDistribution(np.arange(100001.0), [1 - 1.5e-12] + [1e-17] * 100000)
        probes = [-5.0, 0.5, 99999.5, 2e5]
        mean, zero = (influence_profile(t, f, probes) for t in (MEAN, trimmed_mean(0.0)))
        assert zero.values == mean.values
        assert zero.values[0] == -5.0 - evaluate(MEAN, f)
        assert zero.asymptotic_variance == mean.asymptotic_variance

    def test_zero_trim_on_overshooting_prefix_sums_is_the_mean(self):
        # the fsum is 1 + 7.5e-13, but each 1.2e-16 step above 1 rounds up to
        # one ulp, so the naive prefix sums pass 1 + 1e-12 near atom 8,560
        f = EmpiricalDistribution(np.arange(10001.0), [1 - 4.5e-13] + [1.2e-16] * 10000)
        assert list(accumulate(f.weights))[8600] > 1 + 1e-12
        probes = [-5.0, 9000.0, 9999.5, 2e5]
        want = [y - evaluate(MEAN, f) for y in probes]
        mean, zero = (influence_profile(t, f, probes) for t in (MEAN, trimmed_mean(0.0)))
        assert list(mean.values) == list(zero.values) == want
        assert zero.asymptotic_variance == mean.asymptotic_variance

    @given(st.floats(-1e6, 1e6))
    def test_mean_influence_is_residual(self, y):
        mu = evaluate(MEAN, UNIFORM9)
        got = influence_function(MEAN, UNIFORM9, y)
        assert got + mu == pytest.approx(y, abs=1e-8, rel=1e-8)


class TestInfluenceProfile:
    PROBES = np.array([-1e6, -1e4, -100.0, -10.0, 10.0, 100.0, 1e4, 1e6])

    def test_mean_unbounded(self):
        profile = influence_profile(MEAN, UNIFORM9, self.PROBES)
        assert profile.gross_error_sensitivity == np.inf

    def test_median_bounded(self):
        profile = influence_profile(MEDIAN, UNIFORM9, self.PROBES)
        assert np.isfinite(profile.gross_error_sensitivity)

    def test_trimmed_mean_bounded(self):
        profile = influence_profile(trimmed_mean(0.25), UNIFORM9, self.PROBES)
        assert np.isfinite(profile.gross_error_sensitivity)

    def test_asymptotic_variance_of_mean_is_variance(self):
        f = dist((-1.0, 0.5), (1.0, 0.5))
        profile = influence_profile(MEAN, f, np.array([-2.0, 0.0, 2.0]))
        assert profile.asymptotic_variance == pytest.approx(1.0, abs=1e-8)

    def test_asymptotic_variance_matches_population_variance(self):
        mu = evaluate(MEAN, UNIFORM9)
        var = float(np.dot(UNIFORM9.weights, (np.asarray(UNIFORM9.locations) - mu) ** 2))
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
        assert math.isfinite(profile.gross_error_sensitivity)
        base = evaluate(t, f)
        # the first kink past eps = 0+ is at eps ~ 1/m, so one step of 1e-7
        # gives the right slope up to rounding
        for y, got in zip(probes, profile.values):
            want = (evaluate(t, contaminate(f, eps, y)) - base) / eps
            assert got == pytest.approx(want, abs=1e-6)

    def test_probes_must_be_sorted(self):
        with pytest.raises(InvalidInputError):
            influence_profile(MEAN, UNIFORM9, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_probes_must_be_finite(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            influence_profile(MEAN, UNIFORM9, np.array([1.0, bad]))

    @pytest.mark.parametrize("probes", [np.ones((2, 2)), [[1.0], [2.0]], ["x"], []])
    def test_malformed_probes_are_invalid(self, probes):
        with pytest.raises(InvalidInputError):
            influence_profile(MEAN, UNIFORM9, probes)

    @given(tied_rows())
    def test_tied_rows_give_the_profile_of_their_merged_twin(self, rows):
        def outcome(t, f):
            try:
                profile = influence_profile(t, f, [-7.0, -0.5, 0.0, 1.0, 2.5, 7.0])
            except NumericalFailureError as exc:  # a median that jumps
                return str(exc)
            return profile.values, profile.asymptotic_variance, profile.gross_error_sensitivity

        f, twin = EmpiricalDistribution(*rows), merged_twin(*rows)
        for t in [MEAN, MEDIAN] + [trimmed_mean(a) for a in (0.0, 0.1, 0.25)]:
            assert outcome(t, f) == outcome(t, twin)

    @pytest.mark.parametrize(
        "probes",
        [
            [1e-300, 2e-300],  # tiny probes, where |IF| of the mean is flat
            [4.0, 5.0, 6.0],  # around the mean, where |IF| of the mean shrinks
            [-1.7e308, 1.7e308],  # the ends of the float range
        ],
        ids=["tiny", "around-the-mean", "huge"],
    )
    def test_verdict_comes_from_the_functional(self, probes):
        verdicts = [(MEAN, True), (trimmed_mean(0.0), True), (MEDIAN, False),
                    (trimmed_mean(0.1), False), (trimmed_mean(0.4), False)]
        for t, unbounded in verdicts:
            profile = influence_profile(t, UNIFORM9, probes)
            want = math.inf if unbounded else max(map(abs, profile.values))
            assert profile.gross_error_sensitivity == want

    @given(tied_rows(), st.integers(-400, 400))
    def test_profile_is_scale_free(self, rows, k):
        # scaling the data and the probes by 2^k scales every influence value
        # by 2^k and the variance by 4^k exactly, and keeps the verdict
        def outcome(t, f, probes, k):
            try:
                p = influence_profile(t, f, probes)
            except NumericalFailureError:  # a median that jumps; the message names y
                return "fails"
            return (tuple(math.ldexp(v, -k) for v in p.values),
                    math.ldexp(p.gross_error_sensitivity, -k),  # +inf for an unbounded IF
                    math.ldexp(p.asymptotic_variance, -2 * k))

        locs, weights = rows
        probes = [-7.0, -0.5, 0.0, 1.0, 2.5, 7.0]
        f = EmpiricalDistribution(locs, weights)
        scaled = EmpiricalDistribution([math.ldexp(x, k) for x in locs], weights)
        for t in [MEAN, MEDIAN] + [trimmed_mean(a) for a in (0.0, 0.1, 0.25)]:
            assert outcome(t, scaled, [math.ldexp(y, k) for y in probes], k) == outcome(
                t, f, probes, 0
            )

    def test_variance_past_the_float_range_fails(self):
        # each influence value is finite, but IF^2 = 1e400 at both atoms
        with pytest.raises(NumericalFailureError, match="variance overflows the float range"):
            influence_profile(MEAN, dist((-1e200, 0.5), (1e200, 0.5)), [1.0, 2.0])

    def test_variance_whose_sum_overflows_fails(self):
        # each weighted IF^2 is finite; the weights sum to 1 + 9e-13, so their sum is not
        y = math.sqrt(1.7976931348623157e308) * (1 - 1e-16)
        f = dist((-y, 0.50000000000045), (y, 0.50000000000045))
        with pytest.raises(NumericalFailureError, match="variance overflows the float range"):
            influence_profile(MEAN, f, [1.0, 2.0])

    def test_influence_past_the_float_range_fails(self):
        # the mean is -1.36e308, so y - mean passes the float range for y > 4.4e307
        f = dist((-1.7e308, 0.9), (1.7e308, 0.1))
        with pytest.raises(NumericalFailureError, match="overflows the float range"):
            influence_profile(MEAN, f, np.array([1e307, 5e307]))


def _kept_slopes(hi: float, lo: float, alpha: float) -> tuple[float, float, float]:
    """Right derivatives of an atom's kept weight toward a point mass at y,
    for y above the atom, at it and below it.

    ``hi`` and ``lo`` are the atom's cumulative edges; they move with slopes
    [y <= x] - hi and [y < x] - lo.  The kept weight is
    max(0, min(hi, 1 - alpha) - max(lo, alpha)), as in :func:`evaluate`,
    with min(hi, 1 - alpha) = -max(-hi, alpha - 1).
    """

    def right(value, slope, floor):
        # of max(value + eps * slope, floor) at eps = 0; within the weight
        # tolerance of the floor the larger slope wins
        if value > floor + 1e-12:
            return slope
        return max(slope, 0.0) if value >= floor - 1e-12 else 0.0

    kept = -max(-hi, alpha - 1.0) - max(lo, alpha)
    return tuple(
        right(kept, -right(-hi, hi - a, alpha - 1.0) - right(lo, b - lo, alpha), 0.0)
        for a, b in ((0, 0), (1, 0), (1, 1))
    )


def exact_influence(t, f, y):
    """The exact influence at one y, computed atom by atom.

    MEAN, the trimmed mean that trims nothing, gives y - mean.  MEDIAN
    gives 0: the cases that use this keep every cumulative weight off 1/2,
    where the median jumps.  Any other trimmed mean differentiates each
    atom's kept weight with y joined to the atoms.
    """
    if t.trim_fraction == 0.0:
        return y - evaluate(MEAN, f)
    if t.trim_fraction is None:
        return 0.0
    # y joins as a zero-weight atom unless it is already a location; the atom
    # at x takes entry [y <= x] + [y < x] of its slopes (y above, at, below x)
    loc, w = list(f.locations), list(f.weights)
    if y not in loc:
        at = bisect_left(loc, y)
        loc.insert(at, y)
        w.insert(at, 0.0)
    alpha = t.trim_fraction
    d_kept = [
        _kept_slopes(hi, hi - wi, alpha)[(y <= x) + (y < x)]
        for hi, wi, x in zip(accumulate(w), w, loc)
    ]
    return math.fsum(map(mul, loc, d_kept)) / (1.0 - 2.0 * alpha)


def _median_index(cum: list[float]) -> int:
    """The median's atom from the full prefix sums of the weights.

    The first atom whose cumulative weight reaches 1/2 within 1e-12, or the
    last atom.  The median jumps under contamination above it when that
    cumulative weight is 1/2 within 1e-12.
    """
    return min(bisect_left(cum, 0.5 - 1e-12), len(cum) - 1)


class TestMedianOracle:
    """The median's edge search against the prefix-sum rule."""

    @staticmethod
    def assert_matches_oracle(f):
        cum = list(accumulate(f.weights))
        idx = _median_index(cum)
        median = f.locations[idx]
        assert evaluate(MEDIAN, f) == median
        for y in (median + 1.0, *f.locations[idx + 1:idx + 3]):  # ys above the median
            if abs(cum[idx] - 0.5) <= 1e-12:
                with pytest.raises(NumericalFailureError, match="converge"):
                    influence_function(MEDIAN, f, y)
            else:
                assert influence_function(MEDIAN, f, y) == 0.0

    @given(tied_rows())
    def test_tied_rows_match_the_oracle(self, rows):
        # integer weights put many cumulative edges exactly on 1/2
        self.assert_matches_oracle(EmpiricalDistribution(*rows))

    @pytest.mark.parametrize(
        "weights",
        [
            [1 - 4.5e-13] + [1.2e-16] * 10000,  # prefix sums pass 1 + 1e-12
            [1 - 1.5e-12] + [1e-17] * 100000,  # prefix sums end 1.5e-12 below 1
            [0.5 - 5e-13, 0.5 + 5e-13],  # an edge within the tolerance below 1/2
            [0.5 + 5e-13, 0.5 - 5e-13],  # and above it
            [0.5 - 2e-12, 0.5 + 2e-12],  # an edge just past it
        ],
        ids=["overshooting", "drifted", "edge-just-below", "edge-just-above", "edge-past"],
    )
    def test_edges_near_the_tolerance_match_the_oracle(self, weights):
        self.assert_matches_oracle(EmpiricalDistribution(np.arange(len(weights)), weights))


def oracle_profile(t, f, probes):
    """influence_profile's values and variance from one exact_influence call per point."""
    values = np.array([exact_influence(t, f, float(y)) for y in probes])
    at_atoms = np.array([exact_influence(t, f, y) for y in f.locations])
    return values, float(np.dot(f.weights, at_atoms**2))


class TestVectorizedProfile:
    """The one-pass profile against the atom-by-atom influence."""

    KINDS = [MEAN, MEDIAN] + [trimmed_mean(a) for a in (0.0, 0.1, 0.25)]
    IDS = ["mean", "median", "trimmed:0", "trimmed:0.1", "trimmed:0.25"]

    @staticmethod
    def probes_around(f):
        # every atom, every midpoint, and points below and above all atoms
        locs = np.unique(f.locations)
        return np.sort(np.concatenate(
            [locs, 0.5 * (locs[1:] + locs[:-1]), [locs[0] - 7.0, locs[-1] + 7.0]]
        ))

    def assert_matches_oracle(self, t, f, probes):
        profile = influence_profile(t, f, probes)
        values, variance = oracle_profile(t, f, probes)
        scale = 1.0 + np.max(np.abs(f.locations)) + np.abs(probes)
        assert np.all(np.abs(profile.values - values) <= 1e-13 * scale)
        assert profile.asymptotic_variance == pytest.approx(variance, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("t", KINDS, ids=IDS)
    def test_probes_equal_to_atoms(self, t):
        f = dist((-2.0, 0.2), (0.5, 0.35), (1.0, 0.05), (4.0, 0.4))
        self.assert_matches_oracle(t, f, np.asarray(f.locations))

    @pytest.mark.parametrize("t", KINDS, ids=IDS)
    def test_tied_locations(self, t):
        # rows at one location merge into one atom, with cumulative edges on
        # the trim levels 0.1, 0.25, 0.75 and 0.9 (and not on 1/2, where the
        # median jumps)
        f = EmpiricalDistribution(
            np.array([-1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 5.0, 5.0, 8.0]),
            np.array([0.1, 0.15, 0.1, 0.2, 0.05, 0.15, 0.1, 0.05, 0.1]),
        )
        self.assert_matches_oracle(t, f, self.probes_around(f))

    @pytest.mark.parametrize("t", KINDS, ids=IDS)
    def test_unequal_weights(self, t):
        f = dist((-3.0, 0.05), (-1.0, 0.15), (0.0, 0.35), (2.0, 0.05), (2.5, 0.25), (9.0, 0.15))
        self.assert_matches_oracle(t, f, self.probes_around(f))

    @pytest.mark.parametrize("t", KINDS, ids=IDS)
    def test_below_between_and_above_all_atoms(self, t):
        f = UNIFORM9
        probes = np.array([-1e6, -3.0, 0.999, 1.5, 4.25, 5.0, 5.5, 9.0, 9.001, 40.0, 1e6])
        self.assert_matches_oracle(t, f, probes)

    def test_random_distributions(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            # rounding makes ties; equal weights put edges on trim levels
            locs = np.round(rng.normal(0.0, 5.0, n), int(rng.integers(0, 3)))
            raw = rng.uniform(0.05, 1.0, n) if rng.random() < 0.5 else np.ones(n)
            f = EmpiricalDistribution(locs, raw / raw.sum())
            for t in self.KINDS:
                if t.trim_fraction is None:
                    continue  # may jump; covered by the fixed cases
                self.assert_matches_oracle(t, f, self.probes_around(f))

    @given(tied_rows())
    def test_tied_rows_match_the_oracle(self, rows):
        # cumulative edges fall on the trim levels, where y takes the quantile
        f = EmpiricalDistribution(*rows)
        for alpha in (0.0, 0.1, 0.25, 0.4):
            self.assert_matches_oracle(trimmed_mean(alpha), f, self.probes_around(f))

    def test_median_jump_in_probes_raises(self):
        f = dist((0.0, 0.5), (10.0, 0.5))
        with pytest.raises(NumericalFailureError, match="converge at y = 5.0"):
            influence_profile(MEDIAN, f, np.array([-1.0, 0.0, 5.0, 20.0]))

    def test_median_jump_at_atoms_raises(self):
        # no probe lies above the median, but the variance visits the atom at 10
        f = dist((0.0, 0.5), (10.0, 0.5))
        with pytest.raises(NumericalFailureError, match="converge at y = 10.0"):
            influence_profile(MEDIAN, f, np.array([-1.0, 0.0]))


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
