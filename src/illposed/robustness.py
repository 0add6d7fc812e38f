"""Statistical functionals on weighted point masses and their sensitivity.

The influence function is the exact one-sided derivative of the functional
at eps -> 0+ along the contamination (1 - eps) F + eps * (point mass at y).
Along that path the mean is linear, the trimmed mean piecewise linear and
the median piecewise constant, so the derivative has a closed form.  A
median that jumps at eps -> 0+ has none, and it is the one case that raises
NumericalFailureError.  The growth of the influence across probe locations
separates functionals that any data perturbation can hijack (the mean) from
those that saturate (median, trimmed mean).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError


class Functional(str, enum.Enum):
    MEAN = "MEAN"
    MEDIAN = "MEDIAN"
    TRIMMED_MEAN = "TRIMMED_MEAN"


@dataclass(frozen=True)
class FunctionalKind:
    """A functional of distributions; trim_fraction applies to TRIMMED_MEAN only."""

    kind: Functional
    trim_fraction: float | None = None

    def __post_init__(self):
        if self.kind is Functional.TRIMMED_MEAN:
            if self.trim_fraction is None or not 0.0 <= self.trim_fraction < 0.5:
                raise InvalidInputError(
                    f"trim_fraction must lie in [0, 0.5), got {self.trim_fraction}"
                )
        elif self.trim_fraction is not None:
            raise InvalidInputError("trim_fraction is only valid for TRIMMED_MEAN")


MEAN = FunctionalKind(Functional.MEAN)
MEDIAN = FunctionalKind(Functional.MEDIAN)


def trimmed_mean(trim_fraction: float) -> FunctionalKind:
    return FunctionalKind(Functional.TRIMMED_MEAN, trim_fraction)


# cumulative-weight comparisons share the weight-sum tolerance
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Weighted point masses on the real line, sorted by location.

    Weights must be positive and sum to 1 within 1e-12.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if loc.ndim != 1 or loc.shape != w.shape or loc.size == 0:
            raise InvalidInputError("locations and weights must be equal-length 1-D and nonempty")
        if not np.all(np.isfinite(loc)):
            raise InvalidInputError("locations must be finite")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be positive and finite")
        total = float(np.sum(w))
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidInputError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        order = np.argsort(loc, kind="stable")
        loc, w = loc[order].copy(), w[order].copy()
        loc.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_atoms(cls, atoms) -> "EmpiricalDistribution":
        pairs = list(atoms)
        if not pairs:
            raise InvalidInputError("need at least one atom")
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.locations.tolist(), self.weights.tolist()))


def evaluate(t: FunctionalKind, f: EmpiricalDistribution) -> float:
    """Value of the functional at a distribution.

    MEAN is the weighted average.  MEDIAN is the smallest location where
    the cumulative weight reaches 0.5 (generalized-inverse convention,
    which makes the median single-valued).  TRIMMED_MEAN removes
    trim_fraction of mass from each tail, splitting atoms proportionally,
    and averages what remains.
    """
    if t.kind is Functional.MEAN:
        return float(np.dot(f.weights, f.locations))
    if t.kind is Functional.MEDIAN:
        return float(f.locations[_median_index(np.cumsum(f.weights))])
    alpha = t.trim_fraction
    if alpha == 0.0:
        return float(np.dot(f.weights, f.locations))
    hi_edge = np.cumsum(f.weights)
    lo_edge = hi_edge - f.weights
    kept = np.minimum(hi_edge, 1.0 - alpha) - np.maximum(lo_edge, alpha)
    kept = np.maximum(kept, 0.0)
    return float(np.dot(kept, f.locations) / (1.0 - 2.0 * alpha))


def _median_index(cum: np.ndarray) -> int:
    # first atom whose cumulative weight reaches 1/2, within the tolerance
    return min(int(np.searchsorted(cum, 0.5 - _WEIGHT_TOL)), cum.size - 1)


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
    w = f.weights * (1.0 - eps)
    hit = np.nonzero(loc == y)[0]
    if hit.size:
        w = w.copy()
        w[hit[0]] += eps
        return EmpiricalDistribution(loc, w)
    return EmpiricalDistribution(np.append(loc, y), np.append(w, eps))


def influence_function(t: FunctionalKind, f: EmpiricalDistribution, y: float) -> float:
    """Exact one-sided derivative of the functional toward a point mass at y.

    The right derivative at eps -> 0+ of T((1 - eps) F + eps * delta_y).
    MEAN gives y - mean(F).  TRIMMED_MEAN differentiates the kept weight of
    each atom, which is piecewise linear in eps; a cumulative edge within
    1e-12 of a trim level follows the piece that is active for eps > 0.
    MEDIAN gives 0 unless the median sits on an atom whose cumulative weight
    is 1/2 within 1e-12 and y lies above it: then the median jumps to a
    later location for every eps > 0, the influence quotient does not
    converge, and NumericalFailureError is raised.
    """
    if not math.isfinite(y):
        raise InvalidInputError(f"contamination location must be finite, got {y}")
    if t.kind is Functional.MEAN:
        return float(y - evaluate(MEAN, f))
    if t.kind is Functional.MEDIAN:
        cum = np.cumsum(f.weights)
        idx = _median_index(cum)
        median = float(f.locations[idx])
        if abs(cum[idx] - 0.5) <= _WEIGHT_TOL and y > median:
            raise NumericalFailureError(
                f"influence quotient does not converge at y = {y}: the median {median!r} "
                "holds cumulative weight 1/2 and jumps under contamination above it"
            )
        return 0.0
    return _trimmed_influence(t.trim_fraction, f, y)


def _trimmed_influence(alpha: float, f: EmpiricalDistribution, y: float) -> float:
    # y joins as a zero-weight atom unless it is already a location, so
    # every atom's edges move with slopes [y < x] - lo and [y <= x] - hi
    loc, w = f.locations, f.weights
    if not np.any(loc == y):
        at = int(np.searchsorted(loc, y))
        loc, w = np.insert(loc, at, y), np.insert(w, at, 0.0)
    hi = np.cumsum(w)
    lo = hi - w
    # kept = max(0, min(hi, 1 - alpha) - max(lo, alpha)), as in evaluate,
    # with min(hi, 1 - alpha) = -max(-hi, alpha - 1)
    neg_upper, neg_d_upper = _right_max(-hi, hi - (y <= loc), alpha - 1.0)
    lower, d_lower = _right_max(lo, (y < loc) - lo, alpha)
    _, d_kept = _right_max(-neg_upper - lower, -neg_d_upper - d_lower, 0.0)
    return float(np.dot(loc, d_kept) / (1.0 - 2.0 * alpha))


def _right_max(value: np.ndarray, slope: np.ndarray, floor: float):
    """max(value + eps * slope, floor) at eps = 0 and its right derivative.

    Within the weight tolerance of the floor the larger slope wins.
    """
    above = value > floor + _WEIGHT_TOL
    tied = ~above & (value >= floor - _WEIGHT_TOL)
    d = np.where(above, slope, np.where(tied, np.maximum(slope, 0.0), 0.0))
    return np.maximum(value, floor), d


@dataclass(frozen=True, eq=False)
class InfluenceProfile:
    """Influence values over probe points plus the derived sensitivity summary.

    ``gross_error_sensitivity`` is +inf when ``unbounded_flag`` is set; the
    flag certifies growth of |IF| across the probe range rather than a
    literal supremum over the whole line.
    """

    probe_points: np.ndarray
    values: np.ndarray
    gross_error_sensitivity: float
    unbounded_flag: bool
    asymptotic_variance: float


def influence_profile(
    t: FunctionalKind, f: EmpiricalDistribution, probe_points
) -> InfluenceProfile:
    """Influence function over sorted probes, with growth and variance summaries.

    The unbounded flag is set when |IF| grows at least linearly in |y| over
    the outer 20% of probe magnitudes (least-squares slope > 0.5).  The
    asymptotic variance integrates IF^2 against the distribution itself.
    """
    probes = np.asarray(probe_points, dtype=float)
    if probes.size == 0:
        raise InvalidInputError("need at least one probe point")
    if np.any(np.diff(probes) < 0):
        raise InvalidInputError("probe points must be sorted ascending")
    values = np.array([influence_function(t, f, y) for y in probes])

    unbounded = _grows_linearly(np.abs(probes), np.abs(values))
    gamma = float("inf") if unbounded else float(np.max(np.abs(values)))
    variance = float(
        np.dot(f.weights, np.array([influence_function(t, f, y) for y in f.locations]) ** 2)
    )
    return InfluenceProfile(
        probe_points=probes,
        values=values,
        gross_error_sensitivity=gamma,
        unbounded_flag=unbounded,
        asymptotic_variance=variance,
    )


def _grows_linearly(magnitudes: np.ndarray, if_abs: np.ndarray) -> bool:
    # one |IF| value per distinct probe magnitude (keep the largest), then a
    # raw-space slope over the outer 20% of magnitudes
    per_mag: dict[float, float] = {}
    for m, v in zip(magnitudes, if_abs):
        per_mag[m] = max(per_mag.get(m, 0.0), v)
    if len(per_mag) < 2:
        return False
    mags = np.array(sorted(per_mag))
    vals = np.array([per_mag[m] for m in mags])
    outer = max(2, math.ceil(0.2 * mags.size))
    x, v = mags[-outer:], vals[-outer:]
    slope, _ = np.polyfit(x, v, 1)
    return bool(slope > 0.5)


@dataclass(frozen=True)
class AttackResult:
    """Witness contamination that drives the mean to a requested target."""

    y: float
    achieved: float
    distance: float


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
