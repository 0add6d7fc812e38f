#!/usr/bin/env python3
"""Sweep the Tikhonov weight on the perturbed cumulative-operator problem.

Prints residual, solution norm, and sup-deviation from the true constant
solution across a dense lambda grid, plus the lambda the discrepancy
principle selects for the Euclidean norm of the data perturbation.
At the defaults the sup-deviation column has a floor of about 0.82: over
a 2001-point log grid of lambda in [1e-10, 1] the smallest full-grid
sup|f-1| is 0.8185, at lambda ~ 8.9e-5.  Two errors trade off there.
Small lambda lets the oscillation through.  Large lambda keeps only the
leading right singular vectors, and those are small at y = 1:
|V_nk| = sqrt(4/(2n+1)) |sin(2(2k-1)c)| with c = pi/(2(2n+1)), which is
7.0e-5 for k = 1 and reaches 0.0447 only mid-spectrum.  So the filtered
solution sags toward zero near the right endpoint.  At the best lambda the
worst point is y ~ 0.938, the last trough of the oscillation, not y = 1.
Restricting the sup to the first 90% of the grid leaves the sag out and
shows the oscillation alone.
"""

import argparse

import numpy as np

from illposed.errors import NoSolutionError
from illposed.fredholm import oscillation_delta, ramp_problem, ramp_rhs, solve_unregularized
from illposed.regularization import discrepancy_select, tikhonov_solve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--n-osc", type=int, default=8)
    parser.add_argument("--points", type=int, default=25)
    args = parser.parse_args()

    problem = ramp_problem(args.n, args.n_osc)
    k, d = problem.operator, problem.rhs
    delta = oscillation_delta(args.n_osc)
    noise = float(np.linalg.norm(d - ramp_rhs(args.n)))
    interior = int(0.9 * args.n)

    unreg = solve_unregularized(problem)
    print(f"n = {args.n}, n_osc = {args.n_osc}, delta = {delta:.6f}")
    print(f"unregularized: sup|f-1| = {np.max(np.abs(unreg - 1)):.4f}")
    print()
    print(f"{'lambda':>12} {'residual':>12} {'||f||':>10} {'sup|f-1|':>10} {'interior sup':>13}")
    best = (np.inf, None)
    for lam in np.logspace(-7, -1, args.points):
        f = tikhonov_solve(k, d, lam)
        dev = np.max(np.abs(f - 1))
        if dev < best[0]:
            best = (dev, lam)
        print(
            f"{lam:12.3e} {np.linalg.norm(k.matrix @ f - d):12.6f} "
            f"{np.linalg.norm(f):10.4f} {dev:10.4f} "
            f"{np.max(np.abs(f[:interior] - 1)):13.4f}"
        )
    print()
    print(f"best sup|f-1| over the sweep: {best[0]:.4f} at lambda = {best[1]:.3e}")

    try:
        lam = discrepancy_select(k, d, noise_level=noise)
        f = tikhonov_solve(k, d, lam)
        print(
            f"discrepancy (target residual = ||e||_2 = {noise:.4f}): lambda = {lam:.3e}, "
            f"sup|f-1| = {np.max(np.abs(f - 1)):.4f}"
        )
    except NoSolutionError as exc:
        print(f"discrepancy selection failed: {exc}")


if __name__ == "__main__":
    main()
