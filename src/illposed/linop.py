"""Dense real linear operators: SVD, pseudo-inverse, and resolution projectors.

The factorization is cached on the operator in two stages: the singular
values alone, which is all a rank or conditioning decision reads, and the
singular vectors, which solves and null spaces need.  A general operator
delegates both stages to LAPACK via ``numpy.linalg.svd``; a subclass whose
SVD is known in closed form overrides them, as the cumulative operator of
:func:`illposed.fredholm.heaviside_operator` does.  Each stage runs at most
once per operator, and both stages share one array of singular values, so
every rank decision on an operator reads the same numbers.  Everything here
is about rank decisions, the generalized inverse, and the identifiability
tests built on top of that one cached factorization.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .records import Record


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _adopt(x) -> np.ndarray:
    """``x`` as a read-only C-ordered float array that no caller can write: ``x``
    itself when neither it nor the ndarray owning its memory is writeable, else a copy."""
    a = owner = np.asarray(x, dtype=float)
    while isinstance(owner.base, np.ndarray):  # a view of a read-only array is read-only
        owner = owner.base
    return _freeze(a.copy() if owner.flags.writeable or not owner.flags.owndata else a)


def _unit(x) -> tuple[np.ndarray, int]:
    """``(x * 2^-e, e)`` with e the exponent of max |x|: exact, and max |x| lands in [1/2, 1)."""
    e = math.frexp(float(np.max(np.abs(x))))[1]
    return np.ldexp(x, -e), e


def _vector(x, n: int, name: str) -> np.ndarray:
    """``x`` as a float array of shape ``(n,)`` with finite entries.

    The one rule for data and parameter vectors; a violation raises
    InvalidInputError naming the argument.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise InvalidInputError(f"{name} must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} must be finite")
    return v


def _lapack_svd(matrix: np.ndarray, **kwargs):
    """``numpy.linalg.svd``, with LAPACK non-convergence and a largest singular
    value past the float range as NumericalFailureError."""
    try:
        out = np.linalg.svd(matrix, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    if not math.isfinite((out[1] if isinstance(out, tuple) else out)[0]):
        raise NumericalFailureError("the largest singular value overflows the float range")
    return out


class DenseOperator(Record):
    """Immutable m x n real matrix with finite entries.

    Parameters
    ----------
    matrix : array_like
        Two-dimensional, nonempty, all entries finite.  Adopted as is when
        neither it nor the array owning its memory is writeable; else copied.
    """

    __slots__ = ("matrix", "__dict__")  # the dict holds the cached factorization

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise InvalidInputError(f"operator must be a nonempty 2-D matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("operator entries must be finite (no NaN/Inf)")
        super().__init__(_adopt(a))

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Read-only nonincreasing singular values, computed on first use.

        Taken from :attr:`_factors` when those exist; otherwise LAPACK
        computes the values alone, several times cheaper than with vectors.
        """
        if "_factors" in self.__dict__:
            return self._factors[1]
        return _freeze(_lapack_svd(self.matrix, compute_uv=False))

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(U, sigma, V)`` of the SVD, computed on first use.

        U is thin; V is complete, so a wide operator keeps its null space.
        If :attr:`_spectrum` came first, sigma is that same array.
        """
        u, s, vt = _lapack_svd(self.matrix, full_matrices=self.rows < self.cols)
        s = self.__dict__.get("_spectrum", s)
        return _freeze(u), _freeze(s), _freeze(vt.T)


class SvdFactors(Record):
    """Rank-truncated singular value decomposition: the kept triplets.

    ``left_vectors`` (rows x r) and ``right_vectors`` (cols x r) have
    orthonormal columns; ``singular_values`` (length r) is nonincreasing.
    The full spectrum, tail included, is ``diagnose(a, rtol).spectrum``.
    """

    __slots__ = ("left_vectors", "singular_values", "right_vectors")

    def __init__(self, left_vectors, singular_values, right_vectors):
        u, s, v = [_adopt(x) for x in (left_vectors, singular_values, right_vectors)]
        if np.any(np.diff(s) > 0):
            raise InvalidInputError("singular values must be nonincreasing")
        super().__init__(u, s, v)

    @property
    def rank(self) -> int:
        return self.singular_values.size


def _tolerance(a: DenseOperator, rtol: float | None) -> float:
    rtol = max(a.rows, a.cols) * float(np.finfo(float).eps) if rtol is None else rtol
    if not 0 <= rtol < math.inf:
        raise InvalidInputError(f"rtol must be >= 0 and finite, got {rtol}")
    return rtol


def _rank(s: np.ndarray, rtol: float) -> int:
    """How many of the nonincreasing singular values ``s`` exceed ``rtol * s[0]``."""
    return int(np.sum(s > rtol * s[0]))


def _numerical_rank(a: DenseOperator, rtol: float | None) -> tuple[np.ndarray, int]:
    """``(sigma, rank)`` from the operator's singular values alone."""
    rtol, s = _tolerance(a, rtol), a._spectrum
    return s, _rank(s, rtol)


def svd(a: DenseOperator, rtol: float | None = None) -> SvdFactors:
    """Singular value decomposition with relative rank truncation.

    Each operator is factored once and every function here shares that
    factorization, so another ``rtol`` only re-slices it.  Singular values
    at or below ``rtol * sigma_max`` are dropped; the full spectrum, tail
    included, is ``diagnose(a, rtol).spectrum``.  The retained triplets
    reconstruct the operator to within ``max(rtol, 1e-10) * sigma_max`` in
    the max-entry norm.

    Parameters
    ----------
    a : DenseOperator
    rtol : float, optional
        Relative truncation threshold, >= 0.  Defaults to
        ``max(rows, cols) * machine epsilon``.
    """
    rtol = _tolerance(a, rtol)  # before any LAPACK call
    u, s, v = a._factors
    rank = _rank(s, rtol)
    return SvdFactors(u[:, :rank], s[:rank], v[:, :rank])


def pseudoinverse(a: DenseOperator, rtol: float | None = None) -> DenseOperator:
    """Moore-Penrose pseudo-inverse via the truncated SVD.

    For full column rank this equals ``(A^T A)^-1 A^T``, but is computed
    from the SVD so the condition number is not squared.
    """
    f = svd(a, rtol)
    return DenseOperator((f.right_vectors / f.singular_values) @ f.left_vectors.T)


def hat_operator(a: DenseOperator, rtol: float | None = None) -> DenseOperator:
    """Data-resolution projector ``A A^+``: symmetric and idempotent.

    Projects data onto the range of the operator; applied to observed data
    it yields the fitted ("smoothed") data.
    """
    f = svd(a, rtol)
    return DenseOperator(f.left_vectors @ f.left_vectors.T)


def model_resolution(a: DenseOperator, rtol: float | None = None) -> DenseOperator:
    """Model-resolution projector ``A^+ A``.

    Equals the identity on parameter space iff the operator has full column
    rank, i.e. iff the problem is identifiable.
    """
    f = svd(a, rtol)
    return DenseOperator(f.right_vectors @ f.right_vectors.T)


def is_identifiable_linear(a: DenseOperator, rtol: float | None = None) -> bool:
    """True iff the numerical rank equals the number of columns."""
    return _numerical_rank(a, rtol)[1] == a.cols


def null_space(a: DenseOperator, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis (cols x k) of the numerical null space.

    The right singular vectors past the numerical rank, sliced from the
    operator's one shared factorization.
    """
    rtol = _tolerance(a, rtol)  # before any LAPACK call
    _, s, v = a._factors
    return v[:, _rank(s, rtol) :].copy()


def linear_parameter_identifiable(
    p: DenseOperator, q: DenseOperator, rtol: float | None = None
) -> bool:
    """True iff the parameter map q is constant on the fibers of p.

    For linear maps this is the null-space inclusion null(P) <= null(q),
    tested as ``max |q N| <= rtol * ||q||`` for an orthonormal null-space
    basis N of P and ||q|| = sigma_max from q's cached spectrum.
    """
    if p.cols != q.cols:
        raise InvalidInputError(
            f"P and q must act on the same parameter space: {p.cols} != {q.cols}"
        )
    rtol = _tolerance(p, rtol)
    basis = null_space(p, rtol)
    if basis.shape[1] == 0:
        return True
    return float(np.max(np.abs(q.matrix @ basis))) <= rtol * float(q._spectrum[0])
