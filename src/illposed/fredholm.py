"""Discretized first-kind integral equation with a step-function kernel.

The forward operator is cumulative integration on [0, 1], discretized by
the right-endpoint rule on a uniform grid so that the operator is exactly
lower-triangular with constant entries.  Its inverse is first differences,
which makes the instability of the problem reproducible in closed form: a
right-hand-side wiggle of amplitude delta comes back as a solution wiggle
of amplitude one.  That solve is the one O(n) first difference; a
:class:`FredholmProblem` is its right-hand side, whose length sets the grid,
and builds its n x n operator on first use, when a regularized solve reads
it.  The operator's singular value decomposition is known in closed form
too, so :func:`heaviside_operator` returns factors itself without LAPACK,
and its condition number is exact.  :func:`regression_functional` shows that a
smooth functional of the density stays estimable while the density does not.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .linop import DenseOperator, _freeze, _vector
from .records import Record, ValueRecord


class FredholmProblem(Record):
    """The cumulative-integration equation K f = F on the grid y_i = i/n, n = len(F).

    ``operator`` is :func:`heaviside_operator` of n, built on first read and
    cached; the unregularized solve never reads it.
    """

    __slots__ = ("rhs", "__dict__")  # the dict holds the cached operator

    def __init__(self, rhs):
        n = np.size(rhs)
        if n < 2:
            raise InvalidInputError(f"need n >= 2 grid points, got {n}")
        super().__init__(_freeze(_vector(rhs, n, "rhs").copy()))

    @cached_property
    def operator(self) -> DenseOperator:
        return heaviside_operator(self.rhs.size)


class _CumulativeOperator(DenseOperator):
    """The n x n cumulative operator K = h * tril(1), with its SVD in closed form.

    With c = pi / (2(2n+1)) and i, k = 1..n (Strang, "The Discrete Cosine
    Transform", SIAM Review 41:135, 1999, the sine and cosine bases of a
    second difference with mixed boundary conditions):

    - sigma_k = h / (2 sin((2k-1) c)), nonincreasing in k;
    - U_ik = sqrt(4/(2n+1)) sin(2i(2k-1) c);
    - V_ik = sqrt(4/(2n+1)) cos((2i-1)(2k-1) c), the same sines a quarter
      period on: sqrt(4/(2n+1)) sin(((2i-1)(2k-1) + 2n + 1) c).

    Both cache stages of :class:`DenseOperator` are replaced: the spectrum
    costs O(n), and the n x n factors are built on first use, never by the
    constructor.  Only :func:`heaviside_operator` makes one; a matrix read
    from a file keeps the LAPACK path whatever its entries.
    """

    @cached_property
    def _spectrum(self) -> np.ndarray:
        n = self.rows
        odd = np.arange(1, 2 * n, 2)
        return _freeze((1.0 / n) / (2.0 * np.sin(odd * (math.pi / (2 * (2 * n + 1))))))

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # sin(m c) has period P = 4(2n+1) in the integer m, so every entry is read from one
        # table of one period at m mod P (no argument past 2 pi); cos(m c) = sin((m + 2n + 1) c)
        n = self.rows
        period = 4 * (2 * n + 1)
        sine = np.sin(np.arange(period) * (2.0 * math.pi / period)) * math.sqrt(4.0 / (2 * n + 1))
        odd = np.arange(1, 2 * n, 2)
        m = np.multiply.outer(odd + 1, odd)  # 2i (2k - 1)
        m %= period
        u = _freeze(sine[m])
        m += 2 * n + 1 - odd  # (2i - 1)(2k - 1) + 2n + 1, never negative
        m %= period
        return u, self._spectrum, _freeze(sine[m])


def heaviside_operator(n: int) -> DenseOperator:
    """n x n cumulative-integration operator: K[i, j] = h for j <= i, else 0.

    (K f)_i is the right-endpoint Riemann sum of f over [0, y_i].  K is
    invertible; its inverse is the scaled first-difference operator.  The
    returned operator supplies its SVD in closed form, on first use.
    """
    if n < 2:
        raise InvalidInputError(f"need n >= 2 grid points, got {n}")
    k = np.tri(n)
    k /= n
    k.flags.writeable = False  # a frozen array is adopted without a copy
    return _CumulativeOperator(k)


def oscillation_delta(n_osc: int) -> float:
    """Perturbation scale delta = 1 / (2 * n_osc * pi) for a whole number of oscillations."""
    if n_osc < 1 or n_osc != int(n_osc):
        raise InvalidInputError(f"n_osc must be a positive integer, got {n_osc}")
    return 1.0 / (2.0 * n_osc * math.pi)


def ramp_rhs(n: int, n_osc: int | None = None) -> np.ndarray:
    """Right-hand side F(y) = y on the grid y_i = i/n, i = 1..n, optionally perturbed.

    Unperturbed, it is the grid itself.  With n_osc oscillations, it is
    y + delta*sin(y/delta) with delta = 1/(2*n_osc*pi): the perturbation
    has sup-norm delta and vanishes at y = 1.
    """
    if n < 1:
        raise InvalidInputError(f"grid size must be >= 1, got {n}")
    y = np.arange(1, n + 1) * (1.0 / n)
    if n_osc is None:
        return y
    delta = oscillation_delta(n_osc)
    return y + delta * np.sin(y / delta)


def analytic_perturbed_solution(n: int, n_osc: int) -> np.ndarray:
    """Exact solution 1 + cos(y/delta) of the perturbed equation on n grid points."""
    return 1.0 + np.cos(ramp_rhs(n) / oscillation_delta(n_osc))


def ramp_problem(n: int, n_osc: int | None = None) -> FredholmProblem:
    """Assemble the discretized problem, optionally with the perturbed right-hand side.

    O(n): the operator is built only when something reads ``operator``.
    """
    return FredholmProblem(ramp_rhs(n, n_osc))


def solve_unregularized(problem: FredholmProblem) -> np.ndarray:
    """Solve K f = F exactly, in O(n) without reading the operator.

    Forward substitution on the constant-entry triangular operator
    collapses to scaled first differences, f_i = (F_i - F_{i-1}) / h with
    F_0 = 0.
    """
    return np.diff(problem.rhs, prepend=0.0) / (1.0 / problem.rhs.size)


class InstabilityResult(ValueRecord):
    """Measured input and output deviations of one perturbation experiment."""

    __slots__ = ("rhs_dev", "sol_dev", "amplification", "delta")


def run_instability_experiment(n: int, n_osc: int) -> InstabilityResult:
    """Solve the perturbed problem and measure the blow-up.

    The right-hand side moves by at most delta while the solution moves by
    about one, so the amplification is about 1/delta = 2*n_osc*pi: it grows
    without bound as the perturbation shrinks.  Requires h <= delta/10 so
    the grid resolves the oscillation instead of aliasing it.
    """
    delta = oscillation_delta(n_osc)
    y = ramp_rhs(n)
    h = 1.0 / n
    if h > delta / 10:
        raise InvalidInputError(
            f"grid does not resolve the oscillation: need h <= delta/10, "
            f"got h = {h:.6g} > delta/10 = {delta / 10:.6g}"
        )
    problem = ramp_problem(n, n_osc)
    rhs_dev = float(np.max(np.abs(problem.rhs - y)))
    sol_dev = float(np.max(np.abs(solve_unregularized(problem) - 1.0)))
    return InstabilityResult(
        rhs_dev=rhs_dev,
        sol_dev=sol_dev,
        amplification=sol_dev / rhs_dev,
        delta=delta,
    )


def regression_functional(density: np.ndarray) -> float:
    """Mean of y under the density: the quadrature of y*f(y) on the grid of its length.

    This linear functional is insensitive to the oscillatory perturbation
    that wrecks the density itself, which is the heart of the distinction
    between recovering f and recovering a smooth functional of f.
    """
    y = ramp_rhs(np.size(density))
    density = _vector(density, y.size, "density")
    return float((1.0 / y.size) * np.sum(y * density))
