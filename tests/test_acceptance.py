"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
assertions carry the same conditions.
"""

import math
import time

import numpy as np
import pytest

from illposed.diagnostics import diagnose, stability_bound_check
from illposed.finite_maps import (
    FiniteMap,
    check_fisher_consistency_theorem,
    check_parameter_equivalence_theorem,
    is_injective,
    parameter_identifiable_sections,
    parameter_identifiable_standard,
)
from illposed.fredholm import (
    analytic_perturbed_solution,
    heaviside_operator,
    oscillation_delta,
    ramp_problem,
    ramp_rhs,
    run_instability_experiment,
    solve_unregularized,
)
from illposed.linop import (
    DenseOperator,
    hat_operator,
    is_identifiable_linear,
    linear_parameter_identifiable,
    pseudoinverse,
    svd,
)
from illposed.regularization import discrepancy_select, tikhonov_solve
from illposed.robustness import (
    MEAN,
    MEDIAN,
    EmpiricalDistribution,
    evaluate,
    influence_function,
    influence_profile,
    sensitivity_attack,
    trimmed_mean,
)

RNG = np.random.default_rng(0xACCE97)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def random_full_column_rank(rows, cols, rng):
    while True:
        a = rng.standard_normal((rows, cols))
        if np.linalg.matrix_rank(a) == cols:
            return DenseOperator(a)


def test_criterion_1_finite_map_theorems():
    """Exhaustive check of both finite-map equivalences, domains/codomains <= 4, < 5 s."""
    start = time.perf_counter()
    t1_checked, t1_bad = check_fisher_consistency_theorem(4, 4)
    t2_checked, t2_bad = check_parameter_equivalence_theorem(4, 4)
    elapsed = time.perf_counter() - start
    ok = t1_bad == 0 and t2_bad == 0 and elapsed < 5.0
    report(
        "criterion 1 (algebraic theorem suite)",
        ok,
        f"({t1_checked} maps, {t2_checked} pairs, {elapsed:.2f}s)",
    )
    assert t1_bad == 0
    assert t2_bad == 0
    assert elapsed < 5.0


def test_criterion_2_regression_identities():
    """100 random full-column-rank 8x3 operators: left inverse, hat projector, recovery."""
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst_left = worst_hat = worst_rec = 0.0
    for _ in range(100):
        a = random_full_column_rank(8, 3, rng)
        pinv = pseudoinverse(a).matrix
        worst_left = max(worst_left, np.max(np.abs(pinv @ a.matrix - np.eye(3))))
        hat = hat_operator(a).matrix
        worst_hat = max(worst_hat, np.max(np.abs(hat @ hat - hat)))
        theta = rng.standard_normal(3)
        rec = pinv @ (a.matrix @ theta)
        worst_rec = max(
            worst_rec, np.linalg.norm(rec - theta) / np.linalg.norm(theta)
        )
    elapsed = time.perf_counter() - start
    ok = worst_left <= 1e-10 and worst_hat <= 1e-8 and worst_rec <= 1e-8 and elapsed < 1.0
    report(
        "criterion 2 (pseudo-inverse identities)",
        ok,
        f"(left {worst_left:.2e}, hat {worst_hat:.2e}, recovery {worst_rec:.2e}, "
        f"{elapsed:.2f}s)",
    )
    assert worst_left <= 1e-10
    assert worst_hat <= 1e-8
    assert worst_rec <= 1e-8
    assert elapsed < 1.0


def test_criterion_3_non_identifiable_pair():
    """The sum map with the coordinate parameter: non-identifiable both ways."""
    p_lin = DenseOperator([[1.0, 1.0]])
    q_coord = DenseOperator([[1.0, 0.0]])
    q_sum = DenseOperator([[1.0, 1.0]])
    lin_forward = is_identifiable_linear(p_lin)
    lin_coord = linear_parameter_identifiable(p_lin, q_coord)
    lin_sum = linear_parameter_identifiable(p_lin, q_sum)

    p_fin = FiniteMap(4, 3, (0, 1, 1, 2))
    q_fin = FiniteMap(4, 2, (0, 0, 1, 1))
    fin_forward = is_injective(p_fin)
    fin_std = parameter_identifiable_standard(p_fin, q_fin)
    fin_sec = parameter_identifiable_sections(p_fin, q_fin)

    ok = (
        lin_forward is False
        and lin_coord is False
        and lin_sum is True
        and fin_forward is False
        and fin_std is False
        and fin_sec is False
    )
    report("criterion 3 (non-identifiable example)", ok)
    assert lin_forward is False
    assert lin_coord is False
    assert lin_sum is True
    assert fin_forward is False
    assert fin_std is False
    assert fin_sec is False


def test_criterion_4_oscillatory_instability_numbers():
    """n = 1000, 8 oscillations: all four quantitative claims, < 2 s."""
    start = time.perf_counter()
    result = run_instability_experiment(1000, 8)
    problem = ramp_problem(1000, 8)
    recovered = solve_unregularized(problem)
    analytic = analytic_perturbed_solution(1000, 8)
    match = float(np.max(np.abs(recovered - analytic)))
    elapsed = time.perf_counter() - start

    target = 16 * math.pi
    ok = (
        result.rhs_dev <= 0.0199
        and match <= 0.05
        and result.sol_dev >= 0.9
        and abs(result.amplification - target) <= 0.1 * target
        and elapsed < 2.0
    )
    report(
        "criterion 4 (instability numbers)",
        ok,
        f"(rhs_dev {result.rhs_dev:.5f}, match {match:.4f}, sol_dev "
        f"{result.sol_dev:.4f}, amplification {result.amplification:.2f}, "
        f"{elapsed:.2f}s)",
    )
    assert result.rhs_dev <= 0.0199
    assert match <= 0.05
    assert result.sol_dev >= 0.9
    assert abs(result.amplification - target) <= 0.1 * target
    assert elapsed < 2.0


def test_criterion_5_divergence_in_the_limit():
    """Shrinking data perturbation never shrinks the solution perturbation."""
    results = []
    for n_osc in (4, 8, 16, 32):
        n = 80 * n_osc  # keeps h <= delta/10 at every level
        results.append(run_instability_experiment(n, n_osc))
    rhs_devs = [r.rhs_dev for r in results]
    strictly_decreasing = all(b < a for a, b in zip(rhs_devs, rhs_devs[1:]))
    sol_stays = all(r.sol_dev >= 0.9 for r in results)
    ok = strictly_decreasing and sol_stays
    report(
        "criterion 5 (divergence property)",
        ok,
        "(rhs " + " > ".join(f"{d:.5f}" for d in rhs_devs) + ")",
    )
    assert strictly_decreasing
    assert sol_stays


def test_criterion_6_conditioning_growth():
    """Condition number of the cumulative operator doubles per grid doubling."""

    def closed_form_kappa(n):
        # singular values of the scaled summation matrix have the exact form
        # h / (2 sin((2k-1) pi / (2(2n+1)))).  heaviside_operator computes its
        # spectrum from the same formula, so this checks the formula's use;
        # the LAPACK baseline below is the check independent of the program
        k = np.arange(1, n + 1)
        s = 1.0 / (2 * n * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))))
        return s[0] / s[-1]

    kappas = {}
    for n in (64, 128, 256, 512):
        r = diagnose(heaviside_operator(n))
        kappas[n] = r.condition_number
    oracle64 = closed_form_kappa(64)
    # values-only LAPACK SVD of a plain copy, which has no closed-form spectrum
    sigma = np.linalg.svd(DenseOperator(heaviside_operator(64).matrix).matrix, compute_uv=False)
    lapack64 = sigma[0] / sigma[-1]
    baseline_ok = (
        abs(kappas[64] - oracle64) <= 1e-8 * oracle64
        and abs(kappas[64] - lapack64) <= 1e-8 * lapack64
    )
    ratios = [kappas[2 * m] / kappas[m] for m in (64, 128, 256)]
    growth_ok = all(1.8 <= r <= 2.2 for r in ratios)
    ok = baseline_ok and growth_ok
    report(
        "criterion 6 (conditioning growth)",
        ok,
        f"(kappa(64) {kappas[64]:.4f} vs oracle {oracle64:.4f}, LAPACK {lapack64:.4f}, ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + ")",
    )
    assert baseline_ok
    assert growth_ok


def test_criterion_7a_tikhonov_matches_normal_equations():
    """Filtered-SVD solution equals the normal-equations oracle to 1e-8 relative."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for lam in (1e-6, 1e-3, 1.0):
        for _ in range(10):
            a = DenseOperator(rng.standard_normal((8, 5)))
            d = rng.standard_normal(8)
            x = tikhonov_solve(a, d, lam)
            m = a.matrix
            oracle = np.linalg.solve(m.T @ m + lam * np.eye(5), m.T @ d)
            worst = max(worst, np.linalg.norm(x - oracle) / np.linalg.norm(oracle))
    ok = worst <= 1e-8
    report("criterion 7a (Tikhonov oracle match)", ok, f"(worst {worst:.2e})")
    assert worst <= 1e-8


def test_criterion_7b_discrepancy_recovers_sup_norm():
    """Discrepancy-selected Tikhonov should cut the sup deviation to 0.5.

    This bound is not attainable for this problem: every spectrally
    filtered solution of the cumulative-operator equation sags toward 0 at
    y = 1 because all right singular vectors vanish there, so
    min over lambda of sup|f_lambda - 1| is about 0.82 (and TSVD is worse).
    The assertion is kept at the stated bound and fails; run
    scripts/regularization_tradeoff.py to reproduce the full lambda scan.
    """
    problem = ramp_problem(1000, 8)
    unreg_dev = float(np.max(np.abs(solve_unregularized(problem) - 1.0)))
    delta = oscillation_delta(8)
    lam = discrepancy_select(problem.operator, problem.rhs, noise_level=delta)
    regularized = tikhonov_solve(problem.operator, problem.rhs, lam)
    reg_dev = float(np.max(np.abs(regularized - 1.0)))
    ok = unreg_dev >= 0.9 and reg_dev <= 0.5
    report(
        "criterion 7b (discrepancy sup-norm recovery)",
        ok,
        f"(unregularized {unreg_dev:.4f}, lambda {lam:.3e}, regularized {reg_dev:.4f})",
    )
    assert unreg_dev >= 0.9
    assert reg_dev <= 0.5, (
        f"sup|f_lambda - 1| = {reg_dev:.4f} > 0.5 at the discrepancy-selected "
        f"lambda = {lam:.3e}; no lambda attains 0.5 for this problem (the "
        f"minimum over a dense lambda sweep is about 0.82, dominated by the "
        f"endpoint sag at y = 1)"
    )


def test_criterion_7c_residual_monotone_in_lambda():
    """Tikhonov residual is nondecreasing across a 20-point log sweep."""
    problem = ramp_problem(1000, 8)
    k, d = problem.operator, problem.rhs
    residuals = [
        float(np.linalg.norm(k.matrix @ tikhonov_solve(k, d, lam) - d))
        for lam in np.logspace(-10, 0, 20)
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))
    report("criterion 7c (residual monotonicity)", monotone)
    assert monotone


def test_criterion_8_robustness_suite():
    """Mean vs median/trimmed-mean sensitivity, attack exactness, variance."""
    f9 = EmpiricalDistribution([float(k) for k in range(1, 10)], [1 / 9] * 9)
    mu = evaluate(MEAN, f9)
    probes = np.array([-1e6, -1e4, -100.0, -10.0, 10.0, 100.0, 1e4, 1e6])

    worst_if = max(
        abs(influence_function(MEAN, f9, y) - (y - mu)) for y in probes
    )
    mean_profile = influence_profile(MEAN, f9, probes)
    median_profile = influence_profile(MEDIAN, f9, probes)
    trimmed_profile = influence_profile(trimmed_mean(0.25), f9, probes)

    attack_err = 0.0
    for target in (5.0, -3.0, 250.0):
        res = sensitivity_attack(f9, 0.01, target)
        attack_err = max(attack_err, abs(res.achieved - target))
        assert res.distance == 0.01

    rademacher = EmpiricalDistribution([-1.0, 1.0], [0.5, 0.5])
    var = influence_profile(MEAN, rademacher, np.array([-2.0, 0.0, 2.0])).asymptotic_variance

    ok = (
        worst_if <= 1e-8
        and mean_profile.gross_error_sensitivity == math.inf
        and math.isfinite(median_profile.gross_error_sensitivity)
        and math.isfinite(trimmed_profile.gross_error_sensitivity)
        and attack_err <= 1e-10
        and abs(var - 1.0) <= 1e-8
    )
    report(
        "criterion 8 (robustness suite)",
        ok,
        f"(worst IF error {worst_if:.2e}, attack error {attack_err:.2e}, "
        f"variance {var:.10f})",
    )
    assert worst_if <= 1e-8
    assert mean_profile.gross_error_sensitivity == np.inf
    assert math.isfinite(median_profile.gross_error_sensitivity)
    assert math.isfinite(trimmed_profile.gross_error_sensitivity)
    assert attack_err <= 1e-10
    assert abs(var - 1.0) <= 1e-8


def test_criterion_9_stability_bound_sweep():
    """The relative-error inequality on 20 operators x 1000 instances, tight at extremes."""
    rng = np.random.default_rng(9)
    holds = True
    worst_gap = 0.0
    for _ in range(20):
        a = random_full_column_rank(6, 4, rng)
        for _ in range(1000):
            check = stability_bound_check(a, rng.standard_normal(4), rng.standard_normal(4))
            holds = holds and check.holds
        factors = svd(a)
        v_max = factors.right_vectors[:, 0]
        v_min = factors.right_vectors[:, -1]
        tight = stability_bound_check(a, v_max + v_min, v_max)
        worst_gap = max(worst_gap, abs(tight.lhs - tight.rhs) / tight.rhs)
    ok = holds and worst_gap <= 1e-6
    report(
        "criterion 9 (stability bound)", ok, f"(worst tightness gap {worst_gap:.2e})"
    )
    assert holds
    assert worst_gap <= 1e-6
