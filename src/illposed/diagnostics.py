"""Well-posedness classification of linear forward operators.

Uniqueness is decided by the numerical rank, and stability by the
condition number; a problem that is identifiable in exact arithmetic can
still be useless in practice when the condition number is large, which is
what the three-way classification reports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linop import DenseOperator, _numerical_rank, svd
from .regularization import _tsvd_from_factors


class Classification(str, enum.Enum):
    WELL_POSED = "WELL_POSED"
    ILL_CONDITIONED = "ILL_CONDITIONED"
    NON_IDENTIFIABLE = "NON_IDENTIFIABLE"


DEFAULT_KAPPA_THRESHOLD = 1e8


@dataclass(frozen=True, eq=False)
class DiagnosisReport:
    """Outcome of :func:`diagnose` plus the numerical evidence.

    ``stability_constant`` is the smallest retained singular value: the
    constant c with ``||A theta|| >= c ||theta||`` on identifiable problems.
    ``decay_exponent`` is the fitted log-log slope of the singular spectrum
    (None when fewer than four positive singular values exist).
    """

    identifiable: bool
    numerical_rank: int
    sigma_max: float
    sigma_min: float
    condition_number: float
    stability_constant: float
    classification: Classification
    spectrum: tuple[float, ...]
    decay_exponent: float | None

    def to_dict(self) -> dict:
        return {
            "identifiable": self.identifiable,
            "numerical_rank": self.numerical_rank,
            "sigma_max": self.sigma_max,
            "sigma_min": self.sigma_min,
            "condition_number": self.condition_number,
            "stability_constant": self.stability_constant,
            "classification": self.classification.value,
            "spectrum": list(self.spectrum),
            "decay_exponent": self.decay_exponent,
        }


@dataclass(frozen=True)
class StabilityBound:
    """One evaluation of the relative-error stability inequality."""

    lhs: float
    rhs: float
    holds: bool


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
    if not 1 < kappa_threshold < math.inf:
        raise InvalidInputError(
            f"kappa_threshold must exceed 1 and be finite, got {kappa_threshold}"
        )
    _, full, rank = _numerical_rank(a, rtol)
    identifiable = rank == a.cols
    if rank > 0:
        sigma_max = float(full[0])
        sigma_min = float(full[rank - 1])
        condition = sigma_max / sigma_min
    else:
        sigma_max = sigma_min = 0.0
        condition = float("inf")
    if not identifiable:
        label = Classification.NON_IDENTIFIABLE
    elif condition > kappa_threshold:
        label = Classification.ILL_CONDITIONED
    else:
        label = Classification.WELL_POSED
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
    _, s, rank = _numerical_rank(a, rtol)
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
    identifiable operator.  Euclidean norms throughout.  ``rtol`` is the
    rank tolerance, as for :func:`diagnose`.
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    if theta1.shape != (a.cols,) or theta2.shape != (a.cols,):
        raise InvalidInputError(f"theta vectors must have shape ({a.cols},)")
    _, s, rank = _numerical_rank(a, rtol)
    if rank != a.cols:
        raise InvalidInputError("stability bound requires an identifiable operator")
    norm2 = np.linalg.norm(theta2)
    a2 = a.matrix @ theta2
    norm_a2 = np.linalg.norm(a2)
    if norm2 == 0 or norm_a2 == 0:
        raise InvalidInputError("theta2 and A theta2 must be nonzero")
    kappa = float(s[0] / s[rank - 1])
    lhs = float(np.linalg.norm(theta1 - theta2) / norm2)
    rhs = float(kappa * np.linalg.norm(a.matrix @ theta1 - a2) / norm_a2)
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
    data = np.asarray(data, dtype=float)
    data_perturbed = np.asarray(data_perturbed, dtype=float)
    if data.shape != (a.rows,) or data_perturbed.shape != (a.rows,):
        raise InvalidInputError(f"data vectors must have shape ({a.rows},)")
    f = svd(a)
    if f.rank != a.cols:
        raise InvalidInputError("perturbation amplification requires an identifiable operator")
    sol_ref = _tsvd_from_factors(f, data, f.rank)
    sol_pert = _tsvd_from_factors(f, data_perturbed, f.rank)
    norm_data = np.linalg.norm(data)
    norm_sol = np.linalg.norm(sol_ref)
    norm_diff = np.linalg.norm(data_perturbed - data)
    if norm_data == 0 or norm_sol == 0 or norm_diff == 0:
        raise InvalidInputError(
            "need nonzero reference data, nonzero reference solution, and a "
            "nonzero perturbation"
        )
    return float(
        (np.linalg.norm(sol_pert - sol_ref) / norm_sol) / (norm_diff / norm_data)
    )


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
