"""Stabilized solves for ill-conditioned linear systems.

Two spectral filters: Tikhonov damping with factors sigma^2/(sigma^2+lambda),
and hard truncation to the k leading singular triplets.  The truncation
levels k = 1, 2, ... realize a nested sequence of restricted problems, each
solved stably on a larger subspace; Tikhonov is the smooth version of the
same idea.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidInputError, NoSolutionError, NumericalFailureError
from .linop import DenseOperator, SvdFactors, svd


# bisection steps discrepancy_select may take on log lambda before giving up
_MAX_BISECTIONS = 200


def _check_data(a: DenseOperator, data) -> np.ndarray:
    d = np.asarray(data, dtype=float)
    if d.shape != (a.rows,):
        raise InvalidInputError(f"data must have shape ({a.rows},), got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("data must be finite")
    return d


def tikhonov_solve(a: DenseOperator, data, lam: float) -> np.ndarray:
    """Minimizer of ||A x - d||^2 + lam ||x||^2 via filtered SVD.

    Equals ``V diag(sigma/(sigma^2+lam)) U^T d`` over the retained spectrum;
    at lam = 0 on a full-rank operator this is the pseudo-inverse solve.
    Raises NumericalFailureError when the filter leaves the float range
    (sigma_max^2 overflows, or some sigma^2 + lam is below the smallest
    normal float) or the solution overflows.
    """
    if not 0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be >= 0 and finite, got {lam}")
    d = _check_data(a, data)
    f = svd(a)
    if f.rank == 0:
        return np.zeros(a.cols)
    s = f.singular_values
    s_max, s_min = float(s[0]), float(s[-1])
    if math.isinf(s_max * s_max) or s_min * s_min + lam < sys.float_info.min:
        raise NumericalFailureError(
            f"the Tikhonov filter at sigma in [{s_min:.6g}, {s_max:.6g}], lambda "
            f"{lam:.6g} leaves the float range; rescale the operator"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = (s / (s**2 + lam)) * (f.left_vectors.T @ d)
        return _finite_solution(f.right_vectors @ coeff)


def tsvd_solve(a: DenseOperator, data, k: int) -> np.ndarray:
    """Least-squares solve restricted to the k leading singular triplets."""
    d = _check_data(a, data)
    f = svd(a)
    if not 1 <= k <= f.rank:
        raise InvalidInputError(f"truncation level {k} outside [1, rank = {f.rank}]")
    return _tsvd_from_factors(f, d, k)


def _tsvd_from_factors(f: SvdFactors, d: np.ndarray, k: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = (f.left_vectors[:, :k].T @ d) / f.singular_values[:k]
        return _finite_solution(f.right_vectors[:, :k] @ coeff)


def _finite_solution(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(
            "the solution overflows the float range; rescale the operator or the data"
        )
    return x


def filter_factors(factors: SvdFactors, lam: float) -> np.ndarray:
    """Tikhonov filter factors sigma_i^2 / (sigma_i^2 + lam), each in (0, 1]."""
    if not 0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be >= 0 and finite, got {lam}")
    s2 = factors.singular_values**2
    return s2 / (s2 + lam)


def discrepancy_select(a: DenseOperator, data, noise_level: float, tau: float = 1.0) -> float:
    """Pick lambda so the Tikhonov residual matches the noise level.

    Finds lam with ``||A x_lam - d|| = tau * noise_level`` (Euclidean norm,
    1% relative tolerance) by bisection on log lam over
    [1e-14 sigma_max^2, sigma_max^2].  The residual norm is monotone
    nondecreasing in lam, so the bracket is valid; targets outside the
    attainable residual range raise NoSolutionError.  A bracket outside the
    normal float range (sigma_max outside about [1.5e-147, 1.3e154]) and a
    bisection that misses the tolerance raise NumericalFailureError.
    """
    if not 0 < noise_level < math.inf:
        raise InvalidInputError(f"noise_level must be > 0 and finite, got {noise_level}")
    if not 1 <= tau < math.inf:
        raise InvalidInputError(f"tau must be >= 1 and finite, got {tau}")
    d = _check_data(a, data)
    f = svd(a)
    if f.rank == 0:
        raise InvalidInputError("operator has numerical rank 0; nothing to regularize")
    s_max = float(f.singular_values[0])
    hi = s_max * s_max
    lo = 1e-14 * hi
    if not (lo >= sys.float_info.min and hi < math.inf):
        raise NumericalFailureError(
            f"the lambda bracket [1e-14 sigma_max^2, sigma_max^2] at sigma_max = "
            f"{s_max:.6g} is outside the float range; rescale the operator"
        )
    s2 = f.singular_values**2
    beta = f.left_vectors.T @ d
    # component of d outside the retained range contributes a fixed residual
    perp2 = max(float(d @ d - beta @ beta), 0.0)

    def residual(lam: float) -> float:
        damped = (lam / (s2 + lam)) * beta
        return math.sqrt(float(damped @ damped) + perp2)

    target = tau * noise_level
    r_lo, r_hi = residual(lo), residual(hi)
    if not r_lo <= target <= r_hi:
        raise NoSolutionError(
            f"target residual {target:.6g} outside attainable range "
            f"[{r_lo:.6g}, {r_hi:.6g}]"
        )
    if abs(r_lo - target) <= 0.01 * target:
        return lo
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(_MAX_BISECTIONS):
        lam = math.exp(0.5 * (log_lo + log_hi))
        r = residual(lam)
        if abs(r - target) <= 0.01 * target:
            return lam
        if r < target:
            log_lo = math.log(lam)
        else:
            log_hi = math.log(lam)
    raise NumericalFailureError(
        f"discrepancy bisection did not converge in {_MAX_BISECTIONS} steps: "
        f"residual {r:.6g} at lambda {lam:.6g}, target {target:.6g}"
    )


def restriction_sequence(a: DenseOperator, data, levels) -> list[np.ndarray]:
    """TSVD solutions along a strictly increasing sequence of truncation levels.

    Each level solves the problem restricted to a larger subspace spanned by
    leading singular vectors; the final level equal to the rank reproduces
    the unrestricted pseudo-inverse solve.
    """
    d = _check_data(a, data)
    levels = [int(k) for k in levels]
    if not levels:
        raise InvalidInputError("levels must be nonempty")
    if any(nxt <= cur for cur, nxt in zip(levels, levels[1:])):
        raise InvalidInputError(f"levels must be strictly increasing, got {levels}")
    f = svd(a)
    if levels[0] < 1 or levels[-1] > f.rank:
        raise InvalidInputError(f"levels {levels} outside [1, rank = {f.rank}]")
    return [_tsvd_from_factors(f, d, k) for k in levels]


# no caller in the package; bench/tracing.py spans it by name, so it goes
# when that entry does
def solve_with(a: DenseOperator, data, method: str, parameter) -> np.ndarray:
    """Tikhonov solve with weight ``parameter``, or TSVD solve at level ``parameter``."""
    if method == "tikhonov":
        return tikhonov_solve(a, data, parameter)
    if method == "tsvd":
        return tsvd_solve(a, data, parameter)
    raise InvalidInputError(f"unknown method {method!r}; use tikhonov or tsvd")
