"""Command-line front end: analyze, solve, fredholm-demo, influence, finite-check.

Exit codes: 0 success, 2 malformed input, violated precondition or an
input too large to allocate, 3 numerical failure.  All output is
deterministic; floats carry 17 significant digits.  An option the chosen
mode never reads is an error (exit 2), not silently dropped.

Each handler imports the numeric modules it needs, so ``finite-check``
runs without importing numpy.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import IllposedError, InvalidInputError, NumericalFailureError
from .fileio import json_flat


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="Identifiability, conditioning, and sensitivity diagnostics "
        "for linear inverse problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify an operator from a CSV matrix")
    p.add_argument("matrix", help="CSV matrix, one row per line, no header")
    p.add_argument("--rtol", type=float, default=None, help="rank tolerance")
    p.add_argument("--kappa-threshold", type=float, default=None,
                   help="condition numbers above this count as ill-conditioned")
    p.add_argument("--param", default=None, help="CSV matrix of a linear parameter map")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("solve", help="solve A x = d, optionally regularized")
    p.add_argument("matrix")
    p.add_argument("data", help="one-column CSV right-hand side")
    p.add_argument("--method", choices=["tikhonov", "tsvd", "none"], default="none")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="TSVD truncation level")
    p.add_argument("--noise", type=float, default=None,
                   help="Euclidean norm of the data error: select lambda by the "
                   "discrepancy principle")
    p.add_argument("--tau", type=float, default=None,
                   help="with --noise: discrepancy safety factor (default 1)")
    p.add_argument("--out", default=None, help="write the solution CSV here")

    p = sub.add_parser("fredholm-demo", help="reproduce the integral-equation instability")
    p.add_argument("--n", type=int, required=True, help="grid size")
    p.add_argument("--n-osc", type=int, required=True, help="number of oscillations")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="also solve with this Tikhonov weight")
    p.add_argument("--noise", type=float, default=None,
                   help="Euclidean norm of the data error: also solve with a "
                   "discrepancy-selected Tikhonov weight")
    p.add_argument("--tau", type=float, default=None,
                   help="with --noise: discrepancy safety factor (default 1)")
    p.add_argument("--out", default=None, help="write the plot CSV here")

    p = sub.add_parser("influence", help="influence profile of a functional")
    p.add_argument("distribution", help="CSV of location,weight rows")
    p.add_argument("--functional", default="mean",
                   help="mean | median | trimmed:<fraction>")
    p.add_argument("--probes", required=True, help="min:max:count, log-spaced")
    p.add_argument("--out", default=None, help="write the profile CSV here")

    p = sub.add_parser("finite-check", help="verify the finite-map theorems exhaustively")
    p.add_argument("--max-domain", type=int, default=None, help="sweep bound (default 4)")
    p.add_argument("--max-codomain", type=int, default=None, help="sweep bound (default 4)")
    p.add_argument("--map", dest="map_text", default=None,
                   help="check one map 'dom cod : t0,t1,...' instead of sweeping")
    p.add_argument("--param", dest="param_text", default=None,
                   help="with --map: a parameter map on the same domain")
    p.add_argument("--out", default=None)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _tau(args) -> float:
    """The discrepancy safety factor, 1 unless given; only --noise reads it."""
    if args.tau is None:
        return 1.0
    if args.noise is None:
        raise InvalidInputError("--tau is read only with --noise")
    return args.tau


_SQRT_TINY = math.sqrt(sys.float_info.min)  # below this, a square is subnormal or 0


def _norm(v) -> float:
    """Euclidean norm, recomputed from ``v / max|v|`` when squaring v under- or overflows."""
    import numpy as np

    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    scale = float(np.max(np.abs(v), initial=0.0))
    if 0 < scale < _SQRT_TINY or math.isinf(norm):
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def _cmd_analyze(args) -> int:
    from . import diagnostics
    from .fileio import read_matrix_csv
    from .linop import linear_parameter_identifiable

    kappa_threshold = (
        diagnostics.DEFAULT_KAPPA_THRESHOLD
        if args.kappa_threshold is None
        else args.kappa_threshold
    )
    a = read_matrix_csv(args.matrix)
    # the identifiability test needs singular vectors; running it first lets
    # diagnose read their singular values instead of a second, values-only SVD
    extra = {}
    if args.param is not None:
        q = read_matrix_csv(args.param)
        extra["parameter_identifiable"] = linear_parameter_identifiable(a, q, rtol=args.rtol)
    report = diagnostics.diagnose(a, rtol=args.rtol, kappa_threshold=kappa_threshold)
    _emit(json_flat({**report.to_dict(), **extra}), args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.noise is not None and args.lam is not None:
        raise InvalidInputError("--noise and --lambda are mutually exclusive")
    if args.noise is not None and args.method == "tsvd":
        raise InvalidInputError("--noise selects a Tikhonov weight; not valid with tsvd")
    if args.lam is not None and args.method != "tikhonov":
        raise InvalidInputError("--lambda is read only by --method tikhonov")
    if args.k is not None and args.method != "tsvd":
        raise InvalidInputError("--k is read only by --method tsvd")
    tau = _tau(args)

    from . import regularization
    from .fileio import read_matrix_csv, read_vector_csv, vector_to_csv
    from .linop import svd

    a = read_matrix_csv(args.matrix)
    d = read_vector_csv(args.data)

    if args.noise is not None:
        lam = regularization.discrepancy_select(a, d, args.noise, tau)
        x = regularization.tikhonov_solve(a, d, lam)
        method, parameter = "tikhonov", lam
    elif args.method == "tikhonov":
        if args.lam is None:
            raise InvalidInputError("tikhonov requires --lambda or --noise")
        x = regularization.tikhonov_solve(a, d, args.lam)
        method, parameter = "tikhonov", args.lam
    elif args.method == "tsvd":
        if args.k is None:
            raise InvalidInputError("tsvd requires --k")
        x = regularization.tsvd_solve(a, d, args.k)
        method, parameter = "tsvd", args.k
    else:
        f = svd(a)
        x = regularization._tsvd_from_factors(f, regularization._check_data(a, d), f.rank)
        method, parameter = "none", None

    report = {
        "method": method,
        "parameter": parameter,
        "residual": _norm(a.matrix @ x - d),
        "solution_norm": _norm(x),
    }
    _emit(vector_to_csv(x), args.out)
    sys.stdout.write(json_flat(report))
    return 0


def _cmd_fredholm_demo(args) -> int:
    if args.lam is not None and args.noise is not None:
        raise InvalidInputError("--lambda and --noise are mutually exclusive")
    tau = _tau(args)

    import numpy as np

    from . import fredholm, regularization
    from .fileio import table_to_csv

    result = fredholm.run_instability_experiment(args.n, args.n_osc)
    problem = fredholm.ramp_problem(args.n, args.n_osc)
    grid, rhs = problem.grid, problem.rhs

    header = ["y", "F_unperturbed", "F_perturbed", "f_recovered", "f_analytic"]
    columns = [
        grid.points,
        fredholm.ramp_rhs(grid),
        rhs,
        fredholm.solve_unregularized(problem),
        fredholm.analytic_perturbed_solution(grid, args.n_osc),
    ]
    summary = {
        "rhs_dev": result.rhs_dev,
        "sol_dev": result.sol_dev,
        "amplification": result.amplification,
        "delta": result.delta,
    }
    if args.lam is not None or args.noise is not None:
        k = problem.operator
        lam = (
            args.lam
            if args.lam is not None
            else regularization.discrepancy_select(k, rhs, args.noise, tau)
        )
        regularized = regularization.tikhonov_solve(k, rhs, lam)
        header.append("f_regularized")
        columns.append(regularized)
        summary["lambda"] = lam
        summary["regularized_sup_deviation"] = float(np.max(np.abs(regularized - 1.0)))

    _emit(table_to_csv(header, columns), args.out)
    sys.stdout.write(json_flat(summary))
    return 0


def _parse_functional(text: str):
    from . import robustness

    if text == "mean":
        return robustness.MEAN
    if text == "median":
        return robustness.MEDIAN
    if text.startswith("trimmed:"):
        try:
            frac = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad trim fraction in {text!r}") from exc
        return robustness.trimmed_mean(frac)
    raise InvalidInputError(f"unknown functional {text!r}; use mean, median, or trimmed:<frac>")


def _parse_probes(text: str):
    import numpy as np

    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"--probes wants min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidInputError(f"bad --probes {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"--probes needs a finite min and max, got {text!r}")
    if lo <= 0 or hi <= lo or count < 2:
        raise InvalidInputError("--probes needs 0 < min < max and count >= 2")
    # no address space holds more float64 values; near 2**63 numpy's own
    # size check misses and fails with an IndexError
    if count > sys.maxsize // 8:
        raise InvalidInputError(f"--probes count {count} exceeds {sys.maxsize // 8}")
    try:
        return np.geomspace(lo, hi, count)
    except ValueError as exc:  # numpy refuses the count
        raise InvalidInputError(f"bad --probes {text!r}: {exc}") from exc


def _cmd_influence(args) -> int:
    from . import robustness
    from .fileio import read_distribution_csv, table_to_csv

    dist = read_distribution_csv(args.distribution)
    kind = _parse_functional(args.functional)
    probes = _parse_probes(args.probes)
    profile = robustness.influence_profile(kind, dist, probes)
    summary = {
        "functional": args.functional,
        "gross_error_sensitivity": (
            "unbounded" if profile.unbounded_flag else profile.gross_error_sensitivity
        ),
        "asymptotic_variance": profile.asymptotic_variance,
    }
    _emit(table_to_csv(["probe", "influence"], [profile.probe_points, profile.values]), args.out)
    sys.stdout.write(json_flat(summary))
    return 0


def _cmd_finite_check(args) -> int:
    from . import finite_maps

    if args.param_text is not None and args.map_text is None:
        raise InvalidInputError("--param needs --map: it is checked against that map")
    if args.map_text is not None:
        if args.max_domain is not None or args.max_codomain is not None:
            raise InvalidInputError(
                "--max-domain/--max-codomain bound the sweep; not valid with --map"
            )
        p = finite_maps.parse_finite_map(args.map_text)
        estimator = finite_maps.fisher_consistent_estimator(p)
        payload = {
            "map": finite_maps.format_finite_map(p),
            "injective": finite_maps.is_injective(p),
            "estimator_exists": estimator is not None,
            "estimator": None if estimator is None else finite_maps.format_finite_map(estimator),
        }
        if args.param_text is not None:
            q = finite_maps.parse_finite_map(args.param_text)
            payload["parameter_identifiable_standard"] = (
                finite_maps.parameter_identifiable_standard(p, q)
            )
            payload["parameter_identifiable_sections"] = (
                finite_maps.parameter_identifiable_sections(p, finite_maps.restrict_to_range(q))
            )
        _emit(json_flat(payload), args.out)
        return 0

    max_domain = 4 if args.max_domain is None else args.max_domain
    max_codomain = 4 if args.max_codomain is None else args.max_codomain
    if not 1 <= max_domain <= 5 or not 1 <= max_codomain <= 5:
        raise InvalidInputError(
            f"sweep bounds must lie in [1, 5], got max-domain {max_domain}, "
            f"max-codomain {max_codomain}"
        )
    t1_checked, t1_bad = finite_maps.check_fisher_consistency_theorem(max_domain, max_codomain)
    t2_checked, t2_bad = finite_maps.check_parameter_equivalence_theorem(
        max_domain, max_codomain
    )
    payload = {
        "max_domain": max_domain,
        "max_codomain": max_codomain,
        "theorem1_maps_checked": t1_checked,
        "theorem1_counterexamples": t1_bad,
        "theorem2_pairs_checked": t2_checked,
        "theorem2_disagreements": t2_bad,
    }
    _emit(json_flat(payload), args.out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "fredholm-demo": _cmd_fredholm_demo,
    "influence": _cmd_influence,
    "finite-check": _cmd_finite_check,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IllposedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: input too large to allocate{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
