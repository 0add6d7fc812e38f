import math
import tracemalloc

import numpy as np
import pytest

from illposed.errors import InvalidInputError
from illposed.fredholm import (
    FredholmProblem,
    Grid,
    analytic_perturbed_solution,
    density_constraints_check,
    heaviside_operator,
    oscillation_delta,
    ramp_problem,
    ramp_rhs,
    regression_functional,
    run_instability_experiment,
    solve_unregularized,
)
from illposed.linop import DenseOperator, svd

RNG = np.random.default_rng(7)


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid(4)
        assert np.allclose(g.points, [0.25, 0.5, 0.75, 1.0])
        assert np.max(np.abs(np.diff(g.points) - g.h)) < 1e-14

    def test_invalid_size(self):
        with pytest.raises(InvalidInputError):
            Grid(0)


class TestHeavisideOperator:
    def test_n2_matrix(self):
        k = heaviside_operator(2)
        assert np.array_equal(k.matrix, [[0.5, 0.0], [0.5, 0.5]])

    def test_row_sums_are_grid_points(self):
        # K applied to f = 1 gives the cumulative integral y_i: exact for
        # dyadic h, one ulp of summation error otherwise
        k = heaviside_operator(16)
        assert np.array_equal(k.matrix @ np.ones(16), Grid(16).points)
        k = heaviside_operator(17)
        assert np.max(np.abs(k.matrix @ np.ones(17) - Grid(17).points)) < 1e-15

    def test_inverse_recovers_constant(self):
        n = 50
        problem = ramp_problem(n)
        assert np.max(np.abs(solve_unregularized(problem) - 1.0)) < 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            heaviside_operator(1)


class TestPaperRhs:
    def test_unperturbed_is_grid(self):
        assert np.allclose(ramp_rhs(Grid(4)), [0.25, 0.5, 0.75, 1.0])

    def test_delta_formula(self):
        assert oscillation_delta(8) == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-15)
        assert oscillation_delta(8) == pytest.approx(0.0198944, abs=1e-7)

    def test_perturbation_bounded_by_delta(self):
        g = Grid(1000)
        dev = np.abs(ramp_rhs(g, 8) - ramp_rhs(g))
        assert np.max(dev) <= oscillation_delta(8)

    def test_n_osc_validation(self):
        with pytest.raises(InvalidInputError):
            oscillation_delta(0)


class TestAnalyticSolution:
    def test_cosine_extremes(self):
        g = Grid(2000)
        f = analytic_perturbed_solution(g, 8)
        assert np.max(f) == pytest.approx(2.0, abs=1e-3)
        assert np.min(f) == pytest.approx(0.0, abs=1e-3)

    def test_sup_deviation_is_one(self):
        f = analytic_perturbed_solution(Grid(2000), 8)
        assert np.max(np.abs(f - 1.0)) == pytest.approx(1.0, abs=1e-3)

    def test_mean_over_whole_interval(self):
        # the cosine completes whole periods on [0, 1], so its grid sum cancels
        f = analytic_perturbed_solution(Grid(1000), 8)
        assert np.mean(f) == pytest.approx(1.0, abs=1e-9)


class TestSolve:
    def test_perturbed_matches_analytic(self):
        problem = ramp_problem(1000, 8)
        recovered = solve_unregularized(problem)
        analytic = analytic_perturbed_solution(problem.grid, 8)
        assert np.max(np.abs(recovered - analytic)) <= 0.05

    def test_small_rhs_change_large_solution_change(self):
        problem = ramp_problem(1000, 8)
        clean = ramp_rhs(problem.grid)
        assert np.max(np.abs(problem.rhs - clean)) <= 0.02
        recovered = solve_unregularized(problem)
        assert np.max(np.abs(recovered - 1.0)) >= 0.9

    @pytest.mark.parametrize("n", [16, 257, 2048])
    def test_round_trip_random_density(self, n):
        k = heaviside_operator(n)
        f = RNG.uniform(0.1, 2.0, size=n)
        problem = FredholmProblem(Grid(n), k, k.matrix @ f)
        assert np.max(np.abs(solve_unregularized(problem) - f)) < 1e-10

    def test_problem_validates_operator_pattern(self):
        with pytest.raises(InvalidInputError):
            FredholmProblem(Grid(3), heaviside_operator(4), np.zeros(3))
        with pytest.raises(InvalidInputError):
            FredholmProblem(Grid(2), DenseOperator(np.eye(2)), np.zeros(2))

    def test_pattern_tolerance_and_exact_fast_path(self):
        n = 5
        k = heaviside_operator(n).matrix.copy()
        k[3, 1] += 5e-15
        problem = FredholmProblem(Grid(n), DenseOperator(k), np.ones(n))
        # within atol = 1e-14 the problem is accepted, but only the exact
        # pattern takes the first-difference path, so this one is a dense solve
        assert np.array_equal(solve_unregularized(problem), np.linalg.solve(k, np.ones(n)))
        for i, j in [(3, 1), (1, 3)]:
            bad = heaviside_operator(n).matrix.copy()
            bad[i, j] += 1e-13
            with pytest.raises(InvalidInputError, match="lower-triangular"):
                FredholmProblem(Grid(n), DenseOperator(bad), np.ones(n))

    def test_memory_peak_below_two_operators(self):
        # the operator itself takes 8 n^2 bytes; checking its pattern and
        # solving must not add another n x n array
        n = 2000
        tracemalloc.start()
        try:
            solve_unregularized(ramp_problem(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * n


class TestInstabilityExperiment:
    def test_amplification_near_16_pi(self):
        res = run_instability_experiment(1000, 8)
        assert 0.9 * 16 * math.pi <= res.amplification <= 1.1 * 16 * math.pi
        assert res.delta == oscillation_delta(8)
        assert res.rhs_dev <= res.delta

    def test_amplification_grows_with_oscillation(self):
        res32 = run_instability_experiment(4000, 32)
        assert res32.amplification == pytest.approx(64 * math.pi, rel=0.1)
        assert res32.amplification > run_instability_experiment(1000, 8).amplification

    def test_doubling_n_osc_doubles_amplification(self):
        a8 = run_instability_experiment(2000, 8).amplification
        a16 = run_instability_experiment(2000, 16).amplification
        assert a16 / a8 == pytest.approx(2.0, rel=0.1)

    def test_unresolved_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="delta/10"):
            run_instability_experiment(100, 8)

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="grid size"):
            run_instability_experiment(0, 1)

    def test_matches_dense_operator_solve(self):
        # the O(n) experiment reproduces the dense-operator path bit for bit
        res = run_instability_experiment(1000, 8)
        problem = ramp_problem(1000, 8)
        dense = solve_unregularized(problem)
        assert res.sol_dev == float(np.max(np.abs(dense - 1.0)))
        assert res.rhs_dev == float(np.max(np.abs(problem.rhs - ramp_rhs(Grid(1000)))))

    def test_rhs_dev_shrinks_solution_dev_does_not(self):
        # executable form of the divergence: the data perturbation vanishes
        # while the solution perturbation persists
        devs = []
        for n_osc in (4, 8, 16):
            res = run_instability_experiment(80 * n_osc, n_osc)
            devs.append(res)
        rhs = [r.rhs_dev for r in devs]
        assert all(b < a for a, b in zip(rhs, rhs[1:]))
        assert all(r.sol_dev >= 0.9 for r in devs)


class TestDensityConstraints:
    def test_uniform_density(self):
        g = Grid(100)
        check = density_constraints_check(np.ones(100), g)
        assert check.integral == pytest.approx(1.0, abs=1e-12)
        assert check.min_value == 1.0

    def test_perturbed_analytic_solution(self):
        g = Grid(1000)
        check = density_constraints_check(analytic_perturbed_solution(g, 8), g)
        assert check.integral == pytest.approx(1.0, abs=0.01)
        assert -0.01 <= check.min_value <= 0.01

    def test_zero_density_flagged(self):
        check = density_constraints_check(np.zeros(10), Grid(10))
        assert check.integral == 0.0


class TestRegressionFunctional:
    def test_uniform_density_mean(self):
        g = Grid(200)
        assert regression_functional(np.ones(200), g) == pytest.approx(0.5, abs=g.h)

    def test_insensitive_to_oscillation(self):
        # the density is wildly wrong but its mean is almost unchanged
        g = Grid(1000)
        f = solve_unregularized(ramp_problem(1000, 8))
        assert np.max(np.abs(f - 1.0)) >= 0.9
        assert regression_functional(f, g) == pytest.approx(0.5, abs=0.02)

    def test_point_mass_at_one(self):
        n = 100
        g = Grid(n)
        density = np.zeros(n)
        density[-1] = n  # unit mass concentrated at y = 1
        assert regression_functional(density, g) == pytest.approx(1.0, abs=1e-12)


class TestConditioningLink:
    def test_condition_number_nondecreasing_in_n(self):
        kappas = []
        for n in (16, 32, 64, 128):
            s = svd(heaviside_operator(n)).singular_values
            kappas.append(s[0] / s[-1])
        assert all(b >= a for a, b in zip(kappas, kappas[1:]))
