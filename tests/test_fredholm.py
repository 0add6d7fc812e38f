import json
import math
import tracemalloc

import numpy as np
import pytest

from illposed import cli
from illposed.diagnostics import diagnose
from illposed.errors import InvalidInputError
from illposed.fileio import matrix_to_csv, vector_to_csv
from illposed.fredholm import (
    FredholmProblem,
    analytic_perturbed_solution,
    heaviside_operator,
    oscillation_delta,
    ramp_problem,
    ramp_rhs,
    regression_functional,
    run_instability_experiment,
    solve_unregularized,
)
from illposed.linop import DenseOperator, svd
from illposed.regularization import tikhonov_solve
from test_linop import count_lapack_svd, svd_kinds

RNG = np.random.default_rng(7)


class TestGrid:
    def test_points_and_spacing(self):
        y = ramp_rhs(4)
        assert np.allclose(y, [0.25, 0.5, 0.75, 1.0])
        assert np.max(np.abs(np.diff(y) - 0.25)) < 1e-14

    def test_invalid_size(self):
        with pytest.raises(InvalidInputError, match=r"^grid size must be >= 1, got 0$"):
            ramp_rhs(0)

    def test_negative_size(self):
        with pytest.raises(InvalidInputError, match=r"^grid size must be >= 1, got -3$"):
            ramp_rhs(-3)
        with pytest.raises(InvalidInputError, match=r"^grid size must be >= 1, got -3$"):
            analytic_perturbed_solution(-3, 8)


class TestHeavisideOperator:
    def test_n2_matrix(self):
        k = heaviside_operator(2)
        assert np.array_equal(k.matrix, [[0.5, 0.0], [0.5, 0.5]])

    def test_row_sums_are_grid_points(self):
        # K applied to f = 1 gives the cumulative integral y_i: exact for
        # dyadic h, one ulp of summation error otherwise
        k = heaviside_operator(16)
        assert np.array_equal(k.matrix @ np.ones(16), ramp_rhs(16))
        k = heaviside_operator(17)
        assert np.max(np.abs(k.matrix @ np.ones(17) - ramp_rhs(17))) < 1e-15

    def test_inverse_recovers_constant(self):
        n = 50
        problem = ramp_problem(n)
        assert np.max(np.abs(solve_unregularized(problem) - 1.0)) < 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            heaviside_operator(1)


class TestPaperRhs:
    def test_unperturbed_is_grid(self):
        assert np.allclose(ramp_rhs(4), [0.25, 0.5, 0.75, 1.0])

    def test_delta_formula(self):
        assert oscillation_delta(8) == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-15)
        assert oscillation_delta(8) == pytest.approx(0.0198944, abs=1e-7)

    def test_perturbation_bounded_by_delta(self):
        dev = np.abs(ramp_rhs(1000, 8) - ramp_rhs(1000))
        assert np.max(dev) <= oscillation_delta(8)

    def test_n_osc_validation(self):
        with pytest.raises(InvalidInputError):
            oscillation_delta(0)


class TestAnalyticSolution:
    def test_cosine_extremes(self):
        f = analytic_perturbed_solution(2000, 8)
        assert np.max(f) == pytest.approx(2.0, abs=1e-3)
        assert np.min(f) == pytest.approx(0.0, abs=1e-3)

    def test_sup_deviation_is_one(self):
        f = analytic_perturbed_solution(2000, 8)
        assert np.max(np.abs(f - 1.0)) == pytest.approx(1.0, abs=1e-3)

    def test_mean_over_whole_interval(self):
        # the cosine completes whole periods on [0, 1], so its grid sum cancels
        f = analytic_perturbed_solution(1000, 8)
        assert np.mean(f) == pytest.approx(1.0, abs=1e-9)

    def test_is_still_a_density(self):
        # 1 + cos(y/delta) keeps mass 1 and stays nonnegative: a proper density
        f = analytic_perturbed_solution(1000, 8)
        assert (1.0 / 1000) * np.sum(f) == pytest.approx(1.0, abs=0.01)
        assert np.min(f) == pytest.approx(0.0, abs=0.01)


class TestSolve:
    def test_perturbed_matches_analytic(self):
        problem = ramp_problem(1000, 8)
        recovered = solve_unregularized(problem)
        analytic = analytic_perturbed_solution(1000, 8)
        assert np.max(np.abs(recovered - analytic)) <= 0.05

    def test_small_rhs_change_large_solution_change(self):
        problem = ramp_problem(1000, 8)
        clean = ramp_rhs(1000)
        assert np.max(np.abs(problem.rhs - clean)) <= 0.02
        recovered = solve_unregularized(problem)
        assert np.max(np.abs(recovered - 1.0)) >= 0.9

    @pytest.mark.parametrize("n", [16, 257, 2048])
    def test_round_trip_random_density(self, n):
        k = heaviside_operator(n)
        f = RNG.uniform(0.1, 2.0, size=n)
        problem = FredholmProblem(k.matrix @ f)
        assert np.max(np.abs(solve_unregularized(problem) - f)) < 1e-10

    def test_problem_validates_operator_pattern(self):
        with pytest.raises(InvalidInputError, match=r"^rhs must have shape \(4,\), got \(2, 2\)$"):
            FredholmProblem(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="n >= 2"):
            FredholmProblem(np.zeros(1))
        with pytest.raises(InvalidInputError, match="^rhs must be finite$"):
            FredholmProblem(np.array([0.0, np.nan]))

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_rhs_length_sets_the_operator(self, n):
        problem = FredholmProblem(RNG.uniform(size=n))
        assert problem.operator.rows == problem.operator.cols == n
        assert np.array_equal(problem.operator.matrix, heaviside_operator(n).matrix)

    def test_operator_adopts_its_triangle_without_a_copy(self, monkeypatch):
        made, tri = [], np.tri
        monkeypatch.setattr(np, "tri", lambda n: made.append(tri(n)) or made[0])
        assert heaviside_operator(5).matrix is made[0]

    def test_rhs_is_copied_unless_read_only(self):
        rhs = ramp_rhs(4)
        problem = FredholmProblem(rhs)
        rhs[0] = 7.0
        assert problem.rhs[0] == 0.25 and not problem.rhs.flags.writeable
        rhs.flags.writeable = False
        assert FredholmProblem(rhs).rhs is rhs

        problem = ramp_problem(16, 1)
        solve_unregularized(problem)
        assert "operator" not in vars(problem)
        k = problem.operator
        assert k is problem.operator
        assert np.array_equal(k.matrix, heaviside_operator(16).matrix)

    def test_memory_peak_below_two_operators(self):
        # the solve is O(n): the 8 n^2-byte operator is never built
        n = 2000
        tracemalloc.start()
        try:
            solve_unregularized(ramp_problem(n, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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
        # the experiment's numbers are those of the problem's own solve, bit for bit
        res = run_instability_experiment(1000, 8)
        problem = ramp_problem(1000, 8)
        dense = solve_unregularized(problem)
        assert res.sol_dev == float(np.max(np.abs(dense - 1.0)))
        assert res.rhs_dev == float(np.max(np.abs(problem.rhs - ramp_rhs(1000))))

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


class TestRegressionFunctional:
    def test_uniform_density_mean(self):
        assert regression_functional(np.ones(200)) == pytest.approx(0.5, abs=1.0 / 200)

    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_density_length_sets_the_grid(self, n):
        # uniform weight 1 on y_i = i/n: the mean is (n + 1) / (2n)
        assert regression_functional(np.ones(n)) == pytest.approx((n + 1) / (2 * n), rel=1e-14)

    def test_insensitive_to_oscillation(self):
        # the density is wildly wrong but its mean is almost unchanged
        f = solve_unregularized(ramp_problem(1000, 8))
        assert np.max(np.abs(f - 1.0)) >= 0.9
        assert regression_functional(f) == pytest.approx(0.5, abs=0.02)

    def test_point_mass_at_one(self):
        n = 100
        density = np.zeros(n)
        density[-1] = n  # unit mass concentrated at y = 1
        assert regression_functional(density) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_rejected(self, bad):
        density = np.ones(10)
        density[3] = bad
        with pytest.raises(InvalidInputError, match="^density must be finite$"):
            regression_functional(density)

    def test_wrong_shape_rejected(self):
        message = r"^density must have shape \(9,\), got \(3, 3\)$"
        with pytest.raises(InvalidInputError, match=message):
            regression_functional(np.ones((3, 3)))
        with pytest.raises(InvalidInputError, match=r"^grid size must be >= 1, got 0$"):
            regression_functional(np.ones(0))


class TestConditioningLink:
    def test_condition_number_nondecreasing_in_n(self):
        kappas = []
        for n in (16, 32, 64, 128):
            s = svd(heaviside_operator(n)).singular_values
            kappas.append(s[0] / s[-1])
        assert all(b >= a for a, b in zip(kappas, kappas[1:]))


class TestClosedFormSvd:
    """The closed-form SVD of heaviside_operator, with LAPACK as the oracle."""

    SIZES = [2, 3, 16, 17, 256, 1000]

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_lapack(self, n):
        k = heaviside_operator(n)
        u, s, v = k._factors
        # a plain DenseOperator over the same matrix factors through LAPACK
        s_lapack = DenseOperator(k.matrix)._factors[1]
        assert np.max(np.abs(s - s_lapack) / s_lapack) <= 1e-13
        assert np.max(np.abs((u * s) @ v.T - k.matrix)) <= 1e-14 * s[0]
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-13
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-13
        assert np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("n", SIZES)
    def test_one_sine_table_matches_a_sine_and_a_cosine_table(self, n):
        # the oracle reads U from a sin table and V from a cos table, each at m mod P
        period = 4 * (2 * n + 1)
        angle = np.arange(period) * (2.0 * math.pi / period)
        scale = math.sqrt(4.0 / (2 * n + 1))
        odd = np.arange(1, 2 * n, 2)
        u_oracle = (np.sin(angle) * scale)[np.multiply.outer(odd + 1, odd) % period]
        v_oracle = (np.cos(angle) * scale)[np.multiply.outer(odd, odd) % period]
        u, _, v = heaviside_operator(n)._factors
        assert np.array_equal(u, u_oracle)
        # V reads sin a quarter period on, not cos: a few ulps of the scale apart
        assert np.max(np.abs(v - v_oracle)) <= 16 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n", SIZES)
    def test_condition_number_is_exact(self, n):
        c = math.pi / (2 * (2 * n + 1))
        kappa = diagnose(heaviside_operator(n)).condition_number
        assert kappa == pytest.approx(math.sin((2 * n - 1) * c) / math.sin(c), rel=1e-13)

    def test_results_are_read_only_and_c_ordered(self):
        k = heaviside_operator(17)
        f = svd(k)
        for a in (f.left_vectors, f.singular_values, f.right_vectors, *k._factors):
            assert not a.flags.writeable
            assert a.flags.c_contiguous

    def test_both_stages_share_one_spectrum(self):
        values_first = heaviside_operator(16)
        spectrum = values_first._spectrum
        assert values_first._factors[1] is spectrum
        vectors_first = heaviside_operator(16)
        factors = vectors_first._factors
        assert factors[1] is vectors_first._spectrum

    def test_factors_are_lazy(self):
        k = heaviside_operator(16)
        assert "_factors" not in vars(k)
        diagnose(k)
        assert "_factors" not in vars(k)


class TestClosedFormSvdCalls:
    """The closed form replaces LAPACK only for the operator heaviside_operator builds."""

    @pytest.mark.parametrize("n", [16, 1000])
    def test_diagnose_makes_no_lapack_call(self, monkeypatch, n):
        calls = count_lapack_svd(monkeypatch)
        diagnose(heaviside_operator(n))
        assert calls == []

    @pytest.mark.parametrize("regularize", ["--lambda", "--noise"])
    def test_fredholm_demo_makes_no_lapack_call(self, monkeypatch, capsys, tmp_path, regularize):
        n, n_osc = 1000, 8
        noise = float(np.linalg.norm(ramp_rhs(n, n_osc) - ramp_rhs(n)))
        value = "1e-4" if regularize == "--lambda" else repr(noise)
        calls = count_lapack_svd(monkeypatch)
        code = cli.run([
            "fredholm-demo", "--n", str(n), "--n-osc", str(n_osc),
            regularize, value, "--out", str(tmp_path / "demo.csv"),
        ])
        assert code == 0
        assert "regularized_sup_deviation" in capsys.readouterr().out
        assert calls == []

    def test_cumulative_csv_keeps_lapack(self, monkeypatch, capsys, tmp_path):
        # input that happens to hold the cumulative pattern is not special-cased
        n = 64
        matrix = tmp_path / "cumulative.csv"
        matrix.write_text(matrix_to_csv(heaviside_operator(n).matrix))
        data = tmp_path / "rhs.csv"
        data.write_text(vector_to_csv(ramp_rhs(n, 2)))
        calls = count_lapack_svd(monkeypatch)
        code = cli.run(["solve", str(matrix), str(data), "--method", "tikhonov",
                        "--lambda", "1e-4", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        capsys.readouterr()
        assert svd_kinds(calls) == ["thin"]

    @pytest.mark.parametrize("n, n_osc", [(64, 1), (200, 2)])
    @pytest.mark.parametrize("regularize", ["--lambda", "--noise"])
    def test_closed_form_and_lapack_paths_agree(self, capsys, tmp_path, n, n_osc, regularize):
        # fredholm-demo factors in closed form, solve factors the same matrix through LAPACK
        rhs = ramp_rhs(n, n_osc)
        noise = float(np.linalg.norm(rhs - ramp_rhs(n)))
        value = "1e-4" if regularize == "--lambda" else repr(noise)
        matrix = tmp_path / "cumulative.csv"
        matrix.write_text(matrix_to_csv(heaviside_operator(n).matrix))
        data = tmp_path / "rhs.csv"
        data.write_text(vector_to_csv(rhs))
        demo_out, solve_out = tmp_path / "demo.csv", tmp_path / "x.csv"
        capsys.readouterr()
        assert cli.run(["fredholm-demo", "--n", str(n), "--n-osc", str(n_osc),
                        regularize, value, "--out", str(demo_out)]) == 0
        demo = json.loads(capsys.readouterr().out)
        assert cli.run(["solve", str(matrix), str(data), "--method", "tikhonov",
                        regularize, value, "--out", str(solve_out)]) == 0
        solved = json.loads(capsys.readouterr().out)
        header, *rows = demo_out.read_text().splitlines()
        column = header.split(",").index("f_regularized")
        x_closed = np.array([float(row.split(",")[column]) for row in rows])
        x_lapack = np.array([float(line) for line in solve_out.read_text().splitlines()])
        assert np.max(np.abs(x_closed - x_lapack)) <= 1e-12 * np.max(np.abs(x_lapack))
        assert demo["lambda"] == pytest.approx(solved["parameter"], rel=1e-12, abs=0.0)


class TestTikhonovSupNormFloor:
    def test_no_lambda_reaches_the_stated_bound(self):
        # min over lambda of sup|f_lambda - 1| on the perturbed problem.  At
        # small lambda the oscillation passes through; at large lambda only
        # the leading right singular vectors survive, and they are small at
        # y = 1, so the solution sags there.  The worst point of the best
        # lambda is the last trough of the oscillation, y = 15/16, not y = 1.
        problem = ramp_problem(1000, 8)
        f = svd(problem.operator)
        s = f.singular_values
        lams = np.logspace(-10, 0, 2001)
        solutions = ((s / (s**2 + lams[:, None])) * (f.left_vectors.T @ problem.rhs)) @ (
            f.right_vectors.T
        )
        deviation = np.abs(solutions - 1.0)
        sup = deviation.max(axis=1)
        best = int(np.argmin(sup))
        assert 0.81 <= sup[best] <= 0.83
        assert 5e-5 <= lams[best] <= 2e-4
        assert ramp_rhs(1000)[np.argmax(deviation[best])] == pytest.approx(15 / 16, abs=2e-3)
        for i in (0, best, lams.size - 1):
            oracle = tikhonov_solve(problem.operator, problem.rhs, lams[i])
            assert np.max(np.abs(solutions[i] - oracle)) <= 1e-10

    def test_right_singular_vectors_do_not_all_vanish_at_one(self):
        n = 1000
        last_row = np.abs(heaviside_operator(n)._factors[2][-1])
        # |V_nk| = sqrt(4/(2n+1)) |sin(2(2k-1)c)|: small for the leading
        # vectors only
        assert last_row[0] == pytest.approx(7.0e-5, rel=0.01)
        assert np.max(last_row) == pytest.approx(math.sqrt(4 / (2 * n + 1)), rel=1e-5)
