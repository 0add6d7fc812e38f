"""Well-posedness classification of linear forward operators.

Uniqueness is decided by the numerical rank, and stability by the
condition number; a problem that is identifiable in exact arithmetic can
still be useless in practice when the condition number is large, which is
what the three-way classification reports.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .linop import DenseOperator, _numerical_rank, _unit, _vector, svd
from .records import Record, ValueRecord
from .regularization import tikhonov_solve


DEFAULT_KAPPA_THRESHOLD = 1e8


class DiagnosisReport(Record):
    """Outcome of :func:`diagnose` plus the numerical evidence.

    ``classification`` is "WELL_POSED", "ILL_CONDITIONED" or "NON_IDENTIFIABLE".
    ``stability_constant`` is the smallest retained singular value: the
    constant c with ``||A theta|| >= c ||theta||`` on identifiable problems.
    ``decay_exponent`` is the fitted log-log slope of the singular spectrum
    (None when fewer than four positive singular values exist).
    """

    __slots__ = ("identifiable", "numerical_rank", "sigma_max", "sigma_min", "condition_number",
                 "stability_constant", "classification", "spectrum", "decay_exponent")


class StabilityBound(ValueRecord):
    """One evaluation of the relative-error stability inequality."""

    __slots__ = ("lhs", "rhs", "holds")


def _check_kappa_threshold(value: float) -> None:
    if not 1 < value < math.inf:
        raise InvalidInputError(f"kappa_threshold must exceed 1 and be finite, got {value}")


def diagnose(
    a: DenseOperator,
    rtol: float | None = None,
    kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
) -> DiagnosisReport:
    """Classify an operator as well-posed, ill-conditioned, or non-identifiable.

    Parameters
    ----------
    a : DenseOperator
        The forward operator.
    rtol : float, optional
        Rank tolerance, as for :func:`illposed.linop.svd`.
    kappa_threshold : float
        Condition numbers above this are reported ILL_CONDITIONED.  What is
        "unacceptably large" is context-dependent; the default 1e8 spends
        about half of double precision.

    Only singular values are read, so an operator not yet factored pays
    for a values-only SVD.
    """
    _check_kappa_threshold(kappa_threshold)
    full, rank = _numerical_rank(a, rtol)
    identifiable = rank == a.cols
    sigma_max = float(full[0])
    sigma_min = float(full[rank - 1]) if rank else 0.0
    condition = sigma_max / sigma_min if rank else math.inf
    if not identifiable:
        label = "NON_IDENTIFIABLE"
    elif condition > kappa_threshold:
        label = "ILL_CONDITIONED"
    else:
        label = "WELL_POSED"
    positive = full[full > 0]
    decay = spectrum_decay(positive) if positive.size >= 4 else None
    return DiagnosisReport(
        identifiable=identifiable,
        numerical_rank=rank,
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        condition_number=condition,
        stability_constant=sigma_min,
        classification=label,
        spectrum=tuple(float(s) for s in full),
        decay_exponent=decay,
    )


def bounded_away_from_zero(a: DenseOperator, rtol: float | None = None) -> float:
    """The constant c > 0 with ``||A theta|| >= c ||theta||`` for all theta.

    Exists iff the operator is identifiable, in which case c is the
    smallest retained singular value.
    """
    s, rank = _numerical_rank(a, rtol)
    if rank != a.cols:
        raise InvalidInputError("operator is not identifiable; no positive lower bound exists")
    return float(s[rank - 1])


def stability_bound_check(
    a: DenseOperator, theta1: np.ndarray, theta2: np.ndarray, rtol: float | None = None
) -> StabilityBound:
    """Evaluate the relative-error bound linking data and solution changes.

    lhs is the relative solution change ``||t1 - t2|| / ||t2||``, rhs is the
    condition number times the relative data change
    ``||A t1 - A t2|| / ||A t2||``; the bound lhs <= rhs holds for every
    identifiable operator.  Euclidean norms throughout, taken without
    squaring.  ``rtol`` is the rank tolerance, as for :func:`diagnose`.

    A theta is taken on both thetas scaled below 1 and on A scaled to a largest
    entry in [1/2, 1), by powers of two: no overflow, the unscaled data change
    bit for bit unless an entry turns subnormal, and inf where A theta2 vanishes.
    """
    theta1 = _vector(theta1, a.cols, "theta1")
    theta2 = _vector(theta2, a.cols, "theta2")
    s, rank = _numerical_rank(a, rtol)
    if rank != a.cols:
        raise InvalidInputError("stability bound requires an identifiable operator")
    (t1, t2), m = _unit((theta1, theta2))[0], _unit(a.matrix)[0]
    a1, a2 = m @ t1, m @ t2
    lhs = _relative_change(theta1, theta2, "theta2")
    change = _relative_change(a1, a2, "A theta2") if np.any(a2) else math.inf
    rhs = float(s[0] / s[rank - 1]) * change
    return StabilityBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1 + 1e-10))


def perturbation_amplification(
    a: DenseOperator, data: np.ndarray, data_perturbed: np.ndarray
) -> float:
    """Observed amplification of a data perturbation through the solve.

    Ratio of the relative pseudo-inverse solution change to the relative
    data change, with ``data`` as the reference.  Bounded by the condition
    number whenever the reference data lies in the range of the operator
    (always, for square invertible operators); a reference with a large
    out-of-range component can exceed it because the pseudo-inverse
    projects that component away.
    """
    data = _vector(data, a.rows, "data")
    data_perturbed = _vector(data_perturbed, a.rows, "data_perturbed")
    data_change = _relative_change(data_perturbed, data, "data")
    if data_change == 0:
        raise InvalidInputError("the perturbation must be nonzero")
    if svd(a).rank != a.cols:
        raise InvalidInputError("perturbation amplification requires an identifiable operator")
    solution_change = _relative_change(
        tikhonov_solve(a, data_perturbed, 0.0), tikhonov_solve(a, data, 0.0),
        "the reference solution",
    )
    return solution_change / data_change


def _relative_change(u: np.ndarray, v: np.ndarray, name: str) -> float:
    """``||u - v|| / ||v||`` for finite vectors, Euclidean norms taken without squaring.

    Taken on u and v scaled below 1 by one power of two, which ``math.hypot``
    commutes with: nothing overflows, and the quotient is the unscaled one bit
    for bit unless an entry turns subnormal; a nonzero v that scales to 0
    gives inf.  ``name`` names v in the error raised when it is zero.
    """
    if not np.any(v):
        raise InvalidInputError(f"{name} must be nonzero")
    u, v = _unit((u, v))[0]
    norm = math.hypot(*v.tolist())
    return math.hypot(*(u - v).tolist()) / norm if norm else math.inf


def spectrum_decay(spectrum) -> float:
    """Least-squares slope of log(sigma_k) against log(k).

    The first singular value is excluded from the fit (boundary effect).
    More negative means faster decay, i.e. worse conditioning under grid
    refinement.
    """
    s = np.asarray(spectrum, dtype=float)
    if s.size < 4:
        raise InvalidInputError(f"need at least 4 singular values, got {s.size}")
    if np.any(s <= 0):
        raise InvalidInputError("spectrum entries must be positive")
    if np.any(np.diff(s) > 0):
        raise InvalidInputError("spectrum must be nonincreasing")
    k = np.arange(2, s.size + 1, dtype=float)
    slope, _ = np.polyfit(np.log(k), np.log(s[1:]), 1)
    return float(slope)
