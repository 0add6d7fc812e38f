#!/usr/bin/env python3
"""Condition number of the discretized cumulative operator under refinement.

Every finite n gives a formally well-posed (invertible) system, yet kappa
grows like 4n/pi, so refinement alone drives the discrete problem into
ill-conditioning: the fingerprint of a problem whose continuum limit is
genuinely ill-posed.  The operator's singular values come in closed form,
h / (2 sin((2k-1) pi / (2(2n+1)))), so the kappa column is exact; the
LAPACK column recomputes it from a numerical SVD of the same matrix as an
independent cross-check.
"""

import argparse

import numpy as np

from illposed.diagnostics import diagnose
from illposed.fredholm import heaviside_operator


def lapack_kappa(matrix: np.ndarray) -> float:
    s = np.linalg.svd(matrix, compute_uv=False)
    return float(s[0] / s[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128, 256, 512])
    parser.add_argument("--kappa-threshold", type=float, default=100.0)
    args = parser.parse_args()

    print(f"{'n':>5} {'kappa':>12} {'LAPACK':>12} {'4n/pi':>10} "
          f"{'decay slope':>12}  classification")
    for n in args.sizes:
        k = heaviside_operator(n)
        report = diagnose(k, kappa_threshold=args.kappa_threshold)
        print(
            f"{n:>5} {report.condition_number:12.4f} {lapack_kappa(k.matrix):12.4f} "
            f"{4 * n / np.pi:10.2f} {report.decay_exponent:12.4f}  "
            f"{report.classification}"
        )


if __name__ == "__main__":
    main()
