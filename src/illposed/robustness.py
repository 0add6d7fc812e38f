"""Statistical functionals on weighted point masses and their sensitivity.

The influence function is the exact one-sided derivative of the functional
at eps -> 0+ along the contamination (1 - eps) F + eps * (point mass at y).
Along that path the mean is linear, the trimmed mean piecewise linear and
the median piecewise constant, so the derivative has a closed form.  A
median that jumps at eps -> 0+ has none; it raises NumericalFailureError,
as does a functional, an influence value or the asymptotic variance past
the float range.  Whether |IF| is bounded is a property of the functional
alone: it separates those that any data perturbation can hijack (the mean)
from those that saturate (median, trimmed mean).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, chain, groupby, islice, takewhile
from operator import eq, itemgetter, mul

from .errors import InvalidInputError, NumericalFailureError
from .records import Record, ValueRecord


class FunctionalKind(ValueRecord):
    """A trimmed mean by its trim_fraction in [0, 0.5), the mean at 0; None is the median."""

    __slots__ = ("trim_fraction",)

    def __init__(self, trim_fraction: float | None):
        if trim_fraction is not None and not 0.0 <= trim_fraction < 0.5:
            raise InvalidInputError(f"trim_fraction must lie in [0, 0.5), got {trim_fraction}")
        super().__init__(trim_fraction)


def trimmed_mean(trim_fraction: float) -> FunctionalKind:
    return FunctionalKind(trim_fraction)


MEAN = trimmed_mean(0.0)
MEDIAN = FunctionalKind(None)


# cumulative-weight comparisons share the weight-sum tolerance
_WEIGHT_TOL = 1e-12


def _floats(values, message: str) -> tuple[float, ...]:
    """A 1-D sequence of numbers (a numpy array too) as a tuple of floats."""
    if getattr(values, "ndim", 1) != 1:
        raise InvalidInputError(message)
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{message}: {exc}") from exc


class EmpiricalDistribution(Record):
    """Weighted point masses on the real line, held as tuples sorted by location.

    Weights must be positive and sum to 1 within 1e-12 (by ``math.fsum``).
    There is one atom per location: rows at one location merge into one
    atom whose weight is their ``math.fsum``, so every result depends on
    the distribution alone, not on how its rows were written.
    """

    __slots__ = ("locations", "weights")

    def __init__(self, locations, weights):
        shape = "locations and weights must be equal-length 1-D and nonempty"
        loc, w = _floats(locations, shape), _floats(weights, shape)
        if len(loc) != len(w) or not loc:
            raise InvalidInputError(shape)
        if not all(map(math.isfinite, loc)):
            raise InvalidInputError("locations must be finite")
        if not all(0.0 < v < math.inf for v in w):
            raise InvalidInputError("weights must be positive and finite")
        try:
            total = math.fsum(w)
        except OverflowError:  # positive weights whose sum passes the float range
            total = math.inf
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidInputError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        atoms = sorted(zip(loc, w), key=itemgetter(0))
        loc = tuple(map(itemgetter(0), atoms))
        if any(map(eq, loc, islice(loc, 1, None))):  # only a tie builds a second list
            runs = groupby(atoms, itemgetter(0))
            atoms = [(x, math.fsum(map(itemgetter(1), run))) for x, run in runs]
            loc = tuple(map(itemgetter(0), atoms))
        super().__init__(loc, tuple(map(itemgetter(1), atoms)))


def evaluate(t: FunctionalKind, f: EmpiricalDistribution) -> float:
    """Value of the functional at a distribution.

    MEDIAN is the smallest location where the cumulative weight reaches 0.5
    (generalized-inverse convention, which makes the median single-valued).
    A trimmed mean removes trim_fraction of mass from each tail, splitting
    atoms proportionally, and averages what remains; MEAN trims nothing and
    is the weighted average.  A value past the float range, which weights
    summing above 1 within the tolerance allow, raises NumericalFailureError.
    """
    if t.trim_fraction is None:
        return f.locations[_edges_near(f.weights, 0.5)[0] - 1]
    alpha = t.trim_fraction
    top = 1.0 - alpha
    kept = f.weights if not alpha else (  # the mean keeps every weight whole
        k if k >= 0.0 else 0.0  # max(min(hi, top) - max(lo, alpha), 0.0), without the calls
        for hi, w in zip(accumulate(f.weights), f.weights)
        for k in ((hi if hi <= top else top) - (hi - w if hi - w >= alpha else alpha),)
    )
    try:
        value = math.fsum(map(mul, kept, f.locations)) / (1.0 - 2.0 * alpha)
    except OverflowError:  # a sum past the float range
        value = math.inf
    if not math.isfinite(value):
        raise NumericalFailureError("the functional overflows the float range")
    return value


def _edges_near(weights, level: float) -> tuple[int, int]:
    # (lo, hi): cumulative edges below level by over 1e-12, and to 1e-12 above;
    # edge p, the weight of the first p atoms, lies between locations p - 1 and p
    edges = list(takewhile((level + _WEIGHT_TOL).__ge__, accumulate(weights, initial=0.0)))
    return bisect_left(edges, level - _WEIGHT_TOL), len(edges)


def contaminate(f: EmpiricalDistribution, eps: float, y: float) -> EmpiricalDistribution:
    """Mixture (1 - eps) F + eps * (point mass at y).

    A y that is already a location adds eps to that atom's weight (the
    constructor merges the two); weights still sum to 1.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must lie in (0, 1), got {eps}")
    if not math.isfinite(y):
        raise InvalidInputError(f"contamination location must be finite, got {y}")
    w = [v * (1.0 - eps) for v in f.weights]
    return EmpiricalDistribution(f.locations + (y,), w + [eps])


def influence_function(t: FunctionalKind, f: EmpiricalDistribution, y: float) -> float:
    """Exact one-sided derivative of the functional toward a point mass at y.

    The right derivative at eps -> 0+ of T((1 - eps) F + eps * delta_y).
    A trimmed mean gives the Winsorized score, y clamped to the trim quantiles
    of the contaminated distribution, centred and scaled (y - mean(F) for
    MEAN); at a cumulative edge within 1e-12 of a trim level, y takes that
    quantile between the locations beside the edge.
    MEDIAN gives 0 unless the median sits on an atom whose cumulative weight
    is 1/2 within 1e-12 and y lies above it: then the median jumps to a
    later location for every eps > 0, the influence quotient does not
    converge, and NumericalFailureError is raised.  One probe of :func:`influence_profile`.
    """
    return _influence_over(t, f)(_probe_points([y]))[0]


def _influence_over(t: FunctionalKind, f: EmpiricalDistribution):
    """:func:`influence_function` as a function of ascending finite ys."""
    if t.trim_fraction is not None:
        return _winsorized_score(t, f)
    lo, hi = _edges_near(f.weights, 0.5)
    median = f.locations[lo - 1] if lo < hi else math.inf  # an edge on 1/2: the median jumps

    def values(ys):
        for y in ys:
            if y > median:
                raise NumericalFailureError(
                    f"influence quotient does not converge at y = {y}: the median "
                    f"{median!r} holds cumulative weight 1/2 and jumps under "
                    "contamination above it"
                )
        return [0.0] * len(ys)

    return values


def _winsorized_score(t: FunctionalKind, f: EmpiricalDistribution):
    """The trimmed-mean influence as a function of ascending ys, O(1) each after O(m) setup.

    The Winsorized score (Huber, Ann. Math. Stat. 35:73, 1964; Hampel et al.,
    Robust Statistics, 1986, 2.3): IF(y) = (psi - alpha q_lo - alpha q_hi) /
    (1 - 2 alpha) - T(F), with trim quantiles q_lo = clamp(y, a, b) and q_hi =
    clamp(y, c, d) as eps -> 0+, and psi = y clamped to them, which is
    clamp(y, a, d) as b <= c.  The mean is alpha = 0: a = -inf, d = +inf.
    It is constant below a and from d on, and between them a line
    (y - root) * slope that bends where a trim quantile starts to move.
    """
    alpha, m, inf = t.trim_fraction, len(f.locations), math.inf
    value, scale = evaluate(t, f), 1.0 - 2.0 * alpha
    # each trim level counts weight from its own end, so alpha = 0 puts a at -inf
    # and d at +inf however the sums round
    lo, hi = _edges_near(f.weights, alpha)
    top_lo, top_hi = _edges_near(reversed(f.weights), alpha)
    a, b, c, d = (f.locations[p - 1] if 0 < p <= m else inf if p else -inf
                  for p in (lo, hi, m + 1 - top_hi, m + 1 - top_lo))

    # the tails, where psi and one trim quantile stay at a or d: no partial sum
    # overflows, and an atom that pins both quantiles gives exactly 0
    low = a - value + (alpha * a - alpha * c) / scale
    high = d - value + (alpha * d - alpha * b) / scale

    def line(*pinned):  # (root, slope) while the quantiles in ``pinned`` stay put
        rise = scale + alpha * len(pinned)
        return (scale * value + sum(alpha * q for q in pinned)) / rise, rise / scale

    (ra, sa), (rb, sb), (rc, sc) = line(c), (line(b, c) if b <= c else line()), line(b)

    def values(ys):
        head = bisect_left(ys, a)
        tail = max(head, bisect_left(ys, d))
        i, j = (max(head, min(bisect_left(ys, x), tail)) for x in sorted((b, c)))
        # the middle line serves most ys, at slope one (alpha = 0) as a shift
        # alone; the runs outside it are mended in place
        out = [(y - rb) * sb for y in ys] if sb != 1.0 else [y - rb for y in ys]
        out[:i] = [low] * head + [(y - ra) * sa for y in islice(ys, head, i)]
        out[j:] = [(y - rc) * sc for y in islice(ys, j, tail)] + [high] * (len(ys) - tail)
        return out

    return values


class InfluenceProfile(Record):
    """Influence values over probe points plus the derived sensitivity summary.

    ``gross_error_sensitivity`` is +inf when |IF| is unbounded over the whole
    line, which is a property of the functional, and otherwise the maximum
    |IF| over the probes; a trimmed mean's supremum, max(|IF(-inf)|,
    |IF(+inf)|), may lie off them.
    """

    __slots__ = ("probe_points", "values", "gross_error_sensitivity", "asymptotic_variance")


def influence_profile(
    t: FunctionalKind, f: EmpiricalDistribution, probe_points
) -> InfluenceProfile:
    """Influence function over sorted probes, with sensitivity and variance summaries.

    The gross-error sensitivity is +inf for the mean, the trimmed mean that
    trims nothing, whose influence y - mean(F) is unbounded in y.  The median and
    a trimmed mean with trim_fraction > 0 are monotone in the data and
    saturate, so their influence is bounded; for them the gross-error
    sensitivity is the maximum |IF| over the probes.  The asymptotic
    variance integrates IF^2 against the distribution itself.  One O(m)
    setup serves every probe and atom, so p probes over m atoms cost O(m + p).
    """
    probes = _probe_points(probe_points)
    influence = _influence_over(t, f)  # the setup over the atoms serves both calls
    values, at_atoms = tuple(influence(probes)), influence(f.locations)
    try:
        variance = math.fsum(map(mul, f.weights, map(mul, at_atoms, at_atoms)))
    except OverflowError:  # finite terms whose sum passes the float range
        variance = math.inf
    # a finite variance leaves every value at the atoms finite
    if not all(map(math.isfinite, chain(values, [variance]))):
        raise NumericalFailureError("the influence or its variance overflows the float range")
    gamma = math.inf if t.trim_fraction == 0.0 else max(map(abs, values))
    return InfluenceProfile(
        probe_points=probes,
        values=values,
        gross_error_sensitivity=gamma,
        asymptotic_variance=variance,
    )


def _probe_points(values) -> tuple[float, ...]:
    probes = _floats(values, "probe points must be a 1-D sequence of numbers")
    if not probes:
        raise InvalidInputError("need at least one probe point")
    if any(b < a for a, b in zip(probes, probes[1:])):
        raise InvalidInputError("probe points must be sorted ascending")
    if not all(map(math.isfinite, probes)):
        raise InvalidInputError("probe points must be finite")
    return probes


class AttackResult(ValueRecord):
    """Witness contamination that drives the mean to a requested target."""

    __slots__ = ("y", "achieved", "distance")


def sensitivity_attack(f: EmpiricalDistribution, eps: float, target: float) -> AttackResult:
    """Place eps of mass so the contaminated mean equals the target exactly.

    Solves (1-eps)*mean(F) + eps*y = target for y; works for every target
    and every eps in (0, 1), which is precisely what makes the mean a
    sensitive functional.  At eps = 0 no attack is possible, so that input
    is rejected.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must lie in (0, 1), got {eps}")
    mu = evaluate(MEAN, f)
    y = (target - (1.0 - eps) * mu) / eps
    achieved = evaluate(MEAN, contaminate(f, eps, y))
    return AttackResult(y=float(y), achieved=float(achieved), distance=float(eps))
