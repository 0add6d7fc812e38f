import math

import numpy as np
import pytest

from illposed import regularization
from illposed.errors import InvalidInputError, NoSolutionError, NumericalFailureError
from illposed.fredholm import ramp_problem, solve_unregularized
from illposed.linop import DenseOperator, pseudoinverse, svd
from illposed.regularization import (
    discrepancy_select,
    filter_factors,
    restriction_sequence,
    solve_with,
    tikhonov_solve,
    tsvd_solve,
)

RNG = np.random.default_rng(42)


def normal_equations_oracle(a, d, lam):
    m = a.matrix
    return np.linalg.solve(m.T @ m + lam * np.eye(a.cols), m.T @ d)


class TestSolveWith:
    def test_dispatch(self):
        a = DenseOperator(np.diag([2.0, 1.0]))
        d = np.array([2.0, 1.0])
        assert np.allclose(solve_with(a, d, "tikhonov", 0.0), [1.0, 1.0])
        assert np.allclose(solve_with(a, d, "tsvd", 1), [1.0, 0.0])
        with pytest.raises(InvalidInputError):
            solve_with(a, d, "none", None)


class TestTikhonov:
    def test_identity_half_filter(self):
        x = tikhonov_solve(DenseOperator(np.eye(2)), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(x, [0.5, 0.5])

    def test_matches_normal_equations(self):
        a = DenseOperator(RNG.standard_normal((8, 5)))
        d = RNG.standard_normal(8)
        for lam in (1e-6, 1e-3, 1.0):
            x = tikhonov_solve(a, d, lam)
            oracle = normal_equations_oracle(a, d, lam)
            assert np.linalg.norm(x - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_zero_lambda_is_pseudoinverse(self):
        a = DenseOperator(RNG.standard_normal((6, 3)))
        d = RNG.standard_normal(6)
        assert np.allclose(
            tikhonov_solve(a, d, 0.0), pseudoinverse(a).matrix @ d, atol=1e-10
        )

    def test_negative_lambda(self):
        with pytest.raises(InvalidInputError):
            tikhonov_solve(DenseOperator(np.eye(2)), np.zeros(2), -1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            tikhonov_solve(DenseOperator(np.eye(2)), np.zeros(2), bad)

    def test_suppresses_fredholm_oscillation(self):
        problem = ramp_problem(1000, 8)
        unreg = solve_unregularized(problem)
        reg = tikhonov_solve(problem.operator, problem.rhs, 1e-4)
        assert np.max(np.abs(reg - 1.0)) < np.max(np.abs(unreg - 1.0))

    def test_monotone_residual_and_shrinkage(self):
        a = DenseOperator(RNG.standard_normal((10, 6)))
        d = RNG.standard_normal(10)
        lams = np.logspace(-8, 2, 20)
        residuals, norms = [], []
        for lam in lams:
            x = tikhonov_solve(a, d, lam)
            residuals.append(np.linalg.norm(a.matrix @ x - d))
            norms.append(np.linalg.norm(x))
        assert all(b >= a_ - 1e-12 for a_, b in zip(residuals, residuals[1:]))
        assert all(b <= a_ + 1e-12 for a_, b in zip(norms, norms[1:]))

    def test_solution_map_operator_norm(self):
        # for fixed lam the map d -> x_lam is Lipschitz with constant
        # 1/(2 sqrt(lam)): the filter sigma/(sigma^2+lam) peaks there
        a = DenseOperator(RNG.standard_normal((8, 4)))
        lam = 1e-3
        bound = 1.0 / (2.0 * np.sqrt(lam))
        for _ in range(100):
            d1 = RNG.standard_normal(8)
            d2 = d1 + RNG.standard_normal(8) * RNG.uniform(1e-6, 1.0)
            dx = tikhonov_solve(a, d1, lam) - tikhonov_solve(a, d2, lam)
            assert np.linalg.norm(dx) <= bound * np.linalg.norm(d1 - d2) * (1 + 1e-10)


class TestTsvd:
    def test_full_rank_equals_pseudoinverse(self):
        a = DenseOperator(RNG.standard_normal((7, 4)))
        d = RNG.standard_normal(7)
        x = tsvd_solve(a, d, svd(a).rank)
        assert np.allclose(x, pseudoinverse(a).matrix @ d, atol=1e-10)

    def test_single_triplet(self):
        x = tsvd_solve(DenseOperator(np.diag([10.0, 0.1])), np.array([10.0, 0.1]), 1)
        assert np.allclose(x, [1.0, 0.0])

    def test_residual_nonincreasing_in_k(self):
        a = DenseOperator(RNG.standard_normal((9, 5)))
        d = RNG.standard_normal(9)
        residuals = [
            np.linalg.norm(a.matrix @ tsvd_solve(a, d, k) - d) for k in range(1, 6)
        ]
        assert all(b <= a_ + 1e-12 for a_, b in zip(residuals, residuals[1:]))

    def test_level_out_of_range(self):
        a = DenseOperator(np.eye(3))
        with pytest.raises(InvalidInputError):
            tsvd_solve(a, np.zeros(3), 0)
        with pytest.raises(InvalidInputError):
            tsvd_solve(a, np.zeros(3), 4)

    def test_equals_hard_filtered_tikhonov_limits(self):
        # TSVD keeps phi = 1 on retained triplets and phi = 0 beyond, the
        # two filter-factor limits lam -> 0 and lam -> inf
        a = DenseOperator(RNG.standard_normal((6, 4)))
        d = RNG.standard_normal(6)
        f = svd(a)
        assert np.allclose(filter_factors(f, 0.0), 1.0)
        assert np.max(filter_factors(f, 1e12)) < 1e-9
        assert np.allclose(tsvd_solve(a, d, f.rank), tikhonov_solve(a, d, 0.0), atol=1e-10)


class TestFilterFactors:
    def test_zero_lambda(self):
        f = svd(DenseOperator(np.diag([2.0, 1.0])))
        assert np.array_equal(filter_factors(f, 0.0), [1.0, 1.0])

    def test_unit_crossover(self):
        f = svd(DenseOperator([[1.0]]))
        assert filter_factors(f, 1.0)[0] == pytest.approx(0.5)

    def test_small_sigma(self):
        f = svd(DenseOperator([[1e-4]]))
        assert filter_factors(f, 1e-4)[0] == pytest.approx(1e-8 / (1e-8 + 1e-4), rel=1e-12)

    def test_in_unit_interval(self):
        f = svd(DenseOperator(RNG.standard_normal((5, 5))))
        phi = filter_factors(f, 0.37)
        assert np.all(phi > 0) and np.all(phi <= 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            filter_factors(svd(DenseOperator(np.eye(2))), bad)


class TestDiscrepancy:
    def test_consistent_data_small_noise(self):
        a = DenseOperator(RNG.standard_normal((6, 3)))
        theta = RNG.standard_normal(3)
        d = a.matrix @ theta
        lam = discrepancy_select(a, d, noise_level=1e-10)
        x = tikhonov_solve(a, d, lam)
        assert np.linalg.norm(x - theta) <= 1e-6 * np.linalg.norm(theta)

    def test_residual_matches_target(self):
        a = DenseOperator(RNG.standard_normal((10, 4)))
        d = a.matrix @ RNG.standard_normal(4) + 0.05 * RNG.standard_normal(10)
        noise = 0.05 * np.sqrt(10)
        lam = discrepancy_select(a, d, noise_level=noise, tau=1.0)
        resid = np.linalg.norm(a.matrix @ tikhonov_solve(a, d, lam) - d)
        assert abs(resid - noise) <= 0.011 * noise

    def test_unattainable_target(self):
        a = DenseOperator(np.eye(3))
        d = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NoSolutionError, match="attainable"):
            discrepancy_select(a, d, noise_level=10.0)

    def test_unconverged_bisection_raises(self, monkeypatch):
        # residual 1e-3 at the first midpoint lambda = 1e-7, far from 0.5
        a = DenseOperator(np.diag([1.0, 0.1, 0.01]))
        d = np.ones(3)
        assert discrepancy_select(a, d, noise_level=0.5) > 0
        monkeypatch.setattr(regularization, "_MAX_BISECTIONS", 1)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            discrepancy_select(a, d, noise_level=0.5)

    def test_validation(self):
        a = DenseOperator(np.eye(2))
        with pytest.raises(InvalidInputError):
            discrepancy_select(a, np.ones(2), noise_level=0.0)
        with pytest.raises(InvalidInputError):
            discrepancy_select(a, np.ones(2), noise_level=0.1, tau=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_and_tau(self, bad):
        a = DenseOperator(np.eye(2))
        with pytest.raises(InvalidInputError, match="noise_level must be > 0 and finite"):
            discrepancy_select(a, np.ones(2), noise_level=bad)
        with pytest.raises(InvalidInputError, match="tau must be >= 1 and finite"):
            discrepancy_select(a, np.ones(2), noise_level=0.1, tau=bad)


class TestRestrictionSequence:
    def test_last_level_is_unrestricted_solve(self):
        a = DenseOperator(RNG.standard_normal((6, 4)))
        d = RNG.standard_normal(6)
        sols = restriction_sequence(a, d, [1, 2, 3, 4])
        assert np.allclose(sols[-1], pseudoinverse(a).matrix @ d, atol=1e-10)

    def test_solution_norm_nondecreasing(self):
        problem = ramp_problem(256, 8)
        sols = restriction_sequence(problem.operator, problem.rhs, list(range(1, 257, 8)))
        norms = [np.linalg.norm(s) for s in sols]
        assert all(b >= a_ - 1e-12 for a_, b in zip(norms, norms[1:]))

    def test_noise_beyond_restriction_is_ignored(self):
        # level 1 misses the true second component but also misses the huge
        # amplified noise, so it wins
        a = DenseOperator(np.diag([1.0, 1e-8]))
        theta = np.array([1.0, 1.0])
        d = a.matrix @ theta + np.array([0.0, 1e-3])
        lvl1, lvl2 = restriction_sequence(a, d, [1, 2])
        err1 = np.linalg.norm(lvl1 - theta)
        err2 = np.linalg.norm(lvl2 - theta)
        assert err1 < err2

    def test_level_validation(self):
        a = DenseOperator(np.eye(3))
        with pytest.raises(InvalidInputError):
            restriction_sequence(a, np.ones(3), [2, 2])
        with pytest.raises(InvalidInputError):
            restriction_sequence(a, np.ones(3), [1, 4])
        with pytest.raises(InvalidInputError):
            restriction_sequence(a, np.ones(3), [])


class TestFloatRange:
    """Library paths the CLI tests do not reach; any RuntimeWarning fails them
    (see the pytest filterwarnings)."""

    def test_tikhonov_denominator_below_smallest_normal(self):
        a = DenseOperator(np.diag([1e-160, 1e-160]))
        with pytest.raises(NumericalFailureError, match="Tikhonov filter"):
            tikhonov_solve(a, np.ones(2), 0.0)
        # a weight at least the smallest normal float keeps the filter in range
        assert np.all(tikhonov_solve(a, np.ones(2), 1.0) == 1e-160)

    def test_restriction_sequence_solution_overflows(self):
        a = DenseOperator(np.diag([1e-320, 1e-320]))
        with pytest.raises(NumericalFailureError, match="solution overflows"):
            restriction_sequence(a, np.ones(2), [1, 2])
