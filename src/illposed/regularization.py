"""Stabilized solves for ill-conditioned linear systems.

Two spectral filters: Tikhonov damping with factors sigma^2/(sigma^2+lambda),
and hard truncation to the k leading singular triplets.  The truncation
levels k = 1, 2, ... realize a nested sequence of restricted problems, each
solved stably on a larger subspace; Tikhonov is the smooth version of the
same idea.

Every solve divides U^T d by sigma + lambda/sigma, which squares nothing,
on data scaled by a power of two so that U^T d stays in range; the one
float-range failure left is a solution that itself overflows.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

from .errors import InvalidInputError, NoSolutionError, NumericalFailureError
from .linop import DenseOperator, SvdFactors, _unit, _vector, svd


def tikhonov_solve(a: DenseOperator, data, lam: float) -> np.ndarray:
    """Minimizer of ||A x - d||^2 + lam ||x||^2 via filtered SVD.

    Equals ``V diag(1/(sigma + lam/sigma)) U^T d`` over the retained
    spectrum, which is sigma/(sigma^2+lam) with nothing squared; at lam = 0
    on a full-rank operator this is the pseudo-inverse solve.  Raises
    NumericalFailureError only when the solution itself overflows.
    """
    if not 0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be >= 0 and finite, got {lam}")
    d = _vector(data, a.rows, "data")
    f = svd(a)
    return _filtered_solve(f, d, f.rank, lam)


def tsvd_solve(a: DenseOperator, data, k: int) -> np.ndarray:
    """Least-squares solve on the k leading singular triplets: restriction_sequence at [k]."""
    return restriction_sequence(a, data, [k])[0]


def _level(k) -> int:
    try:
        return operator.index(k)
    except TypeError:
        raise InvalidInputError(f"truncation level must be an integer, got {k!r}") from None


def _filtered_solve(f: SvdFactors, d: np.ndarray, k: int, lam: float = 0.0) -> np.ndarray:
    # retained sigma are > 0; lam/sigma may overflow to inf, which filters to 0.
    # Solving on d scaled by 2^-e is exact and keeps U^T d in the float range
    s, u, v = f.singular_values[:k], f.left_vectors[:, :k], f.right_vectors[:, :k]
    d, e = _unit(d)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ldexp(v @ ((u.T @ d) / (s + lam / s)), e)
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(
            "the solution overflows the float range; rescale the operator or the data"
        )
    return x


def filter_factors(factors: SvdFactors, lam: float) -> np.ndarray:
    """Tikhonov filter factors sigma_i^2 / (sigma_i^2 + lam), each in (0, 1] for sigma_i > 0."""
    if not 0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be >= 0 and finite, got {lam}")
    s = factors.singular_values  # sigma = 0 < lam gives 0 / (0 + inf) = 0
    with np.errstate(divide="ignore", over="ignore"):
        return s / (s + lam / s)


def discrepancy_select(a: DenseOperator, data, noise_level: float) -> float:
    """Pick lambda so the Tikhonov residual matches the noise level.

    Solves ``||A x_lam - d|| = noise_level`` (Euclidean norm).  A safety
    factor of the discrepancy principle is the caller's product: pass it
    times the data-error norm.  Bisects lam at the geometric mean of
    [1e-14 sigma_max^2, sigma_max^2], where the residual is nondecreasing in
    lam; targets outside its attainable range raise NoSolutionError.  It stops
    when the mean no longer lies strictly inside the bracket, after about 60
    residual evaluations, and returns the top of that final bracket, a few
    ulp wide: the smallest lam found whose residual reaches the target.  d
    and sigma are scaled to unit exponent, so both may have any finite size;
    only a root lam that is not a normal float raises NumericalFailureError.
    """
    if not 0 < noise_level < math.inf:
        raise InvalidInputError(f"noise_level must be > 0 and finite, got {noise_level}")
    d = _vector(data, a.rows, "data")
    f = svd(a)
    if f.rank == 0:
        raise InvalidInputError("operator has numerical rank 0; nothing to regularize")
    # mu = lam / 4^k on sigma / 2^k, exact: a normal bracket, and s2 + mu <= 2
    s, k = _unit(f.singular_values)
    s2 = s ** 2
    hi = float(s2[0])
    lo = 1e-14 * hi
    # the residual is linear in d: measure it on d and the target scaled by
    # 2^-e, which is exact and keeps U^T d inside the float range
    d, e = _unit(d)
    beta = f.left_vectors.T @ d
    # component of d outside the retained range contributes a fixed residual
    perp = math.hypot(*(d - f.left_vectors @ beta).tolist())

    def residual(mu: float) -> float:
        return math.hypot(*((mu / (s2 + mu)) * beta).tolist(), perp)

    def ldexp(r: float, n: int) -> float:  # inf, not OverflowError, where 2^n r overflows
        with np.errstate(over="ignore"):
            return float(np.ldexp(r, n))

    target = ldexp(noise_level, -e)  # past the float range, unattainable
    r_lo, r_hi = residual(lo), residual(hi)
    if not r_lo <= target <= r_hi:
        raise NoSolutionError(
            f"target residual {noise_level:.6g} outside attainable range "
            f"[{ldexp(r_lo, e):.6g}, {ldexp(r_hi, e):.6g}]"
        )
    # residual(lo) <= target <= residual(hi) throughout; the bracket holds finitely many floats
    while lo < (mu := math.sqrt(lo) * math.sqrt(hi)) < hi:
        if residual(mu) < target:
            lo = mu
        else:
            hi = mu
    if not sys.float_info.min_exp <= math.frexp(hi)[1] + 2 * k <= sys.float_info.max_exp:
        raise NumericalFailureError(f"the discrepancy lambda {hi!r} * 4^{k} is not a normal float")
    return math.ldexp(hi, 2 * k)


def restriction_sequence(a: DenseOperator, data, levels) -> list[np.ndarray]:
    """TSVD solutions along a strictly increasing sequence of truncation levels.

    Each level solves the problem restricted to a larger subspace spanned by
    leading singular vectors; the final level equal to the rank reproduces
    the unrestricted pseudo-inverse solve.  The error names the first level outside [1, rank].
    """
    d = _vector(data, a.rows, "data")
    levels = [_level(k) for k in levels]
    if not levels:
        raise InvalidInputError("levels must be nonempty")
    if any(nxt <= cur for cur, nxt in zip(levels, levels[1:])):
        raise InvalidInputError(f"levels must be strictly increasing, got {levels}")
    f = svd(a)
    if bad := [k for k in levels if not 1 <= k <= f.rank]:
        raise InvalidInputError(f"truncation level {bad[0]} outside [1, rank = {f.rank}]")
    return [_filtered_solve(f, d, k) for k in levels]


# no caller in the package; bench/tracing.py spans it by name, so it goes
# when that entry does
def solve_with(a: DenseOperator, data, method: str, parameter) -> np.ndarray:
    """Tikhonov solve with weight ``parameter``, or TSVD solve at level ``parameter``."""
    if method == "tikhonov":
        return tikhonov_solve(a, data, parameter)
    if method == "tsvd":
        return tsvd_solve(a, data, parameter)
    raise InvalidInputError(f"unknown method {method!r}; use tikhonov or tsvd")
