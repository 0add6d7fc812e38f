"""Statistical functionals on weighted point masses and their sensitivity.

The influence function is the exact one-sided derivative of the functional
at eps -> 0+ along the contamination (1 - eps) F + eps * (point mass at y).
Along that path the mean is linear, the trimmed mean piecewise linear and
the median piecewise constant, so the derivative has a closed form.  A
median that jumps at eps -> 0+ has none; it raises NumericalFailureError,
as does a functional, an influence value or the asymptotic variance past
the float range.  How |IF| grows over the probes separates functionals
that any data perturbation can hijack (the mean) from those that saturate
(median, trimmed mean).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, mul, ne, sub

from .errors import InvalidInputError, NumericalFailureError
from .records import Record, ValueRecord


class Functional(str, enum.Enum):
    MEAN = "MEAN"
    MEDIAN = "MEDIAN"
    TRIMMED_MEAN = "TRIMMED_MEAN"


class FunctionalKind(ValueRecord):
    """A functional of distributions; trim_fraction applies to TRIMMED_MEAN only."""

    __slots__ = ("kind", "trim_fraction")

    def __init__(self, kind: Functional, trim_fraction: float | None = None):
        if kind is Functional.TRIMMED_MEAN:
            if trim_fraction is None or not 0.0 <= trim_fraction < 0.5:
                raise InvalidInputError(f"trim_fraction must lie in [0, 0.5), got {trim_fraction}")
        elif trim_fraction is not None:
            raise InvalidInputError("trim_fraction is only valid for TRIMMED_MEAN")
        super().__init__(kind, trim_fraction)


MEAN = FunctionalKind(Functional.MEAN)
MEDIAN = FunctionalKind(Functional.MEDIAN)


def trimmed_mean(trim_fraction: float) -> FunctionalKind:
    return FunctionalKind(Functional.TRIMMED_MEAN, trim_fraction)


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
    Atoms at one location keep their input order.
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
        atoms = sorted(zip(loc, w), key=itemgetter(0))  # stable: ties keep their order
        super().__init__(tuple(map(itemgetter(0), atoms)), tuple(map(itemgetter(1), atoms)))


def evaluate(t: FunctionalKind, f: EmpiricalDistribution) -> float:
    """Value of the functional at a distribution.

    MEAN is the weighted average.  MEDIAN is the smallest location where
    the cumulative weight reaches 0.5 (generalized-inverse convention,
    which makes the median single-valued).  TRIMMED_MEAN removes
    trim_fraction of mass from each tail, splitting atoms proportionally,
    and averages what remains.  A value past the float range, which weights
    summing above 1 within the tolerance allow, raises NumericalFailureError.
    """
    if t.kind is Functional.MEDIAN:
        return f.locations[_median_index(list(accumulate(f.weights)))]
    alpha = t.trim_fraction or 0.0  # None for the mean
    kept = f.weights if not alpha else (  # the mean, or a trimmed mean that trims nothing
        max(min(hi, 1.0 - alpha) - max(hi - w, alpha), 0.0)
        for hi, w in zip(accumulate(f.weights), f.weights)
    )
    try:
        value = math.fsum(map(mul, kept, f.locations)) / (1.0 - 2.0 * alpha)
    except OverflowError:  # a sum past the float range
        value = math.inf
    if not math.isfinite(value):
        raise NumericalFailureError("the functional overflows the float range")
    return value


def _median_index(cum: list[float]) -> int:
    # first atom whose cumulative weight reaches 1/2, within the tolerance
    return min(bisect_left(cum, 0.5 - _WEIGHT_TOL), len(cum) - 1)


def contaminate(f: EmpiricalDistribution, eps: float, y: float) -> EmpiricalDistribution:
    """Mixture (1 - eps) F + eps * (point mass at y).

    The new atom is merged with an existing one at exactly the same
    location; weights still sum to 1.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must lie in (0, 1), got {eps}")
    if not math.isfinite(y):
        raise InvalidInputError(f"contamination location must be finite, got {y}")
    loc = f.locations
    w = [v * (1.0 - eps) for v in f.weights]
    if y in loc:
        w[loc.index(y)] += eps
        return EmpiricalDistribution(loc, w)
    return EmpiricalDistribution(loc + (y,), w + [eps])


def influence_function(t: FunctionalKind, f: EmpiricalDistribution, y: float) -> float:
    """Exact one-sided derivative of the functional toward a point mass at y.

    The right derivative at eps -> 0+ of T((1 - eps) F + eps * delta_y).
    MEAN gives y - mean(F).  TRIMMED_MEAN differentiates the kept weight of
    each atom, which is piecewise linear in eps; a cumulative edge within
    1e-12 of a trim level follows the piece that is active for eps > 0.
    MEDIAN gives 0 unless the median sits on an atom whose cumulative weight
    is 1/2 within 1e-12 and y lies above it: then the median jumps to a
    later location for every eps > 0, the influence quotient does not
    converge, and NumericalFailureError is raised.  One probe of :func:`influence_profile`.
    """
    return _influence_over(t, f)(_probe_points([y]))[0]


def _influence_over(t: FunctionalKind, f: EmpiricalDistribution):
    """:func:`influence_function` as a function of ascending finite ys."""
    if t.kind is Functional.TRIMMED_MEAN:
        return _trimmed_influence_over(t.trim_fraction, f)
    if t.kind is Functional.MEAN:
        mu = evaluate(MEAN, f)
        return lambda ys: [y - mu for y in ys]
    cum = list(accumulate(f.weights))
    idx = _median_index(cum)
    median = f.locations[idx] if abs(cum[idx] - 0.5) <= _WEIGHT_TOL else math.inf

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


def _trimmed_influence_over(alpha: float, f: EmpiricalDistribution):
    """The trimmed-mean influence as a function of ascending ys, O(log m) each.

    An atom's slope depends on y only through whether it lies below, at or
    above y, so each atom has three slopes, fixed once.  Prefix sums of
    location times slope give the sum below, at and above y, and bisection
    finds where y splits the sorted atoms.
    """
    loc = f.locations
    hi = list(accumulate(f.weights))
    inner, outer, top = alpha + _WEIGHT_TOL, alpha - 1.0 + _WEIGHT_TOL, 1.0 - alpha
    below, at, above = [], [], []
    for h, w, x in zip(hi, f.weights, loc):
        lo = h - w
        # as _kept_slopes finds: inside both trim levels each edge moves with
        # its own slope, and wholly outside them no weight is kept
        if lo > inner and -h > outer and h - lo > _WEIGHT_TOL:
            s = -h - -lo, -(h - 1) - -lo, -(h - 1) - (1 - lo)
        elif h - alpha < -_WEIGHT_TOL or top - lo < -_WEIGHT_TOL:
            s = 0.0, 0.0, 0.0
        else:
            s = _kept_slopes(h, lo, alpha)
        below.append(x * s[0])
        at.append(x * s[1])
        above.append(x * s[2])
    below = [0.0, *accumulate(below)]
    at = [0.0, *accumulate(at)]
    above = [*accumulate(reversed(above))][::-1] + [0.0]
    edge = [0.0, *hi]
    scale = 1.0 - 2.0 * alpha

    def values(ys):
        if ys is loc:  # the atoms: each run of tied atoms splits as one y
            cuts = [0, *compress(range(1, len(loc)), map(ne, loc, loc[1:])), len(loc)]
            runs = [
                (below[i] + (at[j] - at[i]) + above[j]) / scale for i, j in zip(cuts, cuts[1:])
            ]
            return list(chain.from_iterable(map(repeat, runs, map(sub, cuts[1:], cuts))))
        out = []
        for y in ys:
            left, right = bisect_left(loc, y), bisect_right(loc, y)
            # a y that is not a location joins as a zero-weight atom with
            # both edges at the weight below it
            joined = y * _kept_slopes(edge[left], edge[left], alpha)[1] if left == right else 0.0
            out.append((below[left] + (at[right] - at[left]) + above[right] + joined) / scale)
        return out

    return values


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
        if value > floor + _WEIGHT_TOL:
            return slope
        return max(slope, 0.0) if value >= floor - _WEIGHT_TOL else 0.0

    kept = -max(-hi, alpha - 1.0) - max(lo, alpha)
    return tuple(
        right(kept, -right(-hi, hi - a, alpha - 1.0) - right(lo, b - lo, alpha), 0.0)
        for a, b in ((0, 0), (1, 0), (1, 1))
    )


class InfluenceProfile(Record):
    """Influence values over probe points plus the derived sensitivity summary.

    ``gross_error_sensitivity`` is +inf when ``unbounded_flag`` is set; the
    flag certifies growth of |IF| across the probe range rather than a
    literal supremum over the whole line.
    """

    __slots__ = ("probe_points", "values", "gross_error_sensitivity", "unbounded_flag",
                 "asymptotic_variance")


def influence_profile(
    t: FunctionalKind, f: EmpiricalDistribution, probe_points
) -> InfluenceProfile:
    """Influence function over sorted probes, with growth and variance summaries.

    The unbounded flag is set when |IF| grows at least linearly in |y| over
    the outer 20% of probe magnitudes (least-squares slope > 0.5).  The
    asymptotic variance integrates IF^2 against the distribution itself.
    The atoms are sorted once, so p probes over m atoms cost
    O((m + p) log m) rather than one O(m) call per point.
    """
    probes = _probe_points(probe_points)
    influence = _influence_over(t, f)  # the sums over the atoms serve both calls
    values, at_atoms = tuple(influence(probes)), influence(f.locations)
    try:
        variance = math.fsum(map(mul, f.weights, map(mul, at_atoms, at_atoms)))
    except OverflowError:  # finite terms whose sum passes the float range
        variance = math.inf
    if not all(map(math.isfinite, chain(values, at_atoms, [variance]))):
        raise NumericalFailureError("the influence or its variance overflows the float range")
    unbounded = _grows_linearly(map(abs, probes), map(abs, values))
    gamma = math.inf if unbounded else max(map(abs, values))
    return InfluenceProfile(
        probe_points=probes,
        values=values,
        gross_error_sensitivity=gamma,
        unbounded_flag=unbounded,
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


def _grows_linearly(magnitudes, if_abs) -> bool:
    # one |IF| value per distinct probe magnitude (keep the largest), then a
    # raw-space least-squares slope over the outer 20% of magnitudes
    per_mag: dict[float, float] = {}
    for m, v in zip(magnitudes, if_abs):
        per_mag[m] = max(per_mag.get(m, 0.0), v)
    x = sorted(per_mag)[-max(2, math.ceil(0.2 * len(per_mag))):]
    if len(x) < 2:
        return False
    v = [per_mag[m] for m in x]
    # each axis scaled below 1 by a power of two: no sum overflows, no spread
    # squares to 0, and the slope scales by 2^(a - b) exactly, far below 2^1023
    a, b = math.frexp(x[-1])[1], math.frexp(max(v))[1]
    x, v = [math.ldexp(m, -a) for m in x], [math.ldexp(r, -b) for r in v]
    x_bar, v_bar = math.fsum(x) / len(x), math.fsum(v) / len(v)
    dx = [m - x_bar for m in x]
    slope = math.fsum(d * (r - v_bar) for d, r in zip(dx, v)) / math.fsum(d * d for d in dx)
    return slope > math.ldexp(0.5, min(a - b, 1024))


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
