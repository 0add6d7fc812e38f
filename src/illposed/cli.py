"""Command-line front end: analyze, solve, fredholm-demo, influence, finite-check.

Exit codes: 0 success, 2 malformed input, violated precondition or an
input too large to allocate, 3 numerical failure.  All output is
deterministic at a fixed BLAS thread count; floats carry 17 significant
digits.  An option the chosen mode never reads is an error (exit 2), not
silently dropped.

Each handler returns ``(table, report)``: the CSV text or None, and the
JSON dict.  Only :func:`run` writes them.  The table goes to ``--out`` or
stdout, and the report follows it on stdout; a handler without a table
sends its report where the table would have gone.

Each handler imports the numeric modules it needs, so ``finite-check``
and ``influence`` run without importing numpy.
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
    p.add_argument("--k", type=int, default=None, help="TSVD truncation level")
    _add_tikhonov_options(p)
    p.add_argument("--out", default=None, help="write the solution CSV here")

    p = sub.add_parser("fredholm-demo", help="reproduce the integral-equation instability")
    p.add_argument("--n", type=int, required=True, help="grid size")
    p.add_argument("--n-osc", type=int, required=True, help="number of oscillations")
    _add_tikhonov_options(p)
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


def _add_tikhonov_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="Tikhonov weight")
    p.add_argument("--noise", type=float, default=None,
                   help="Euclidean norm of the data error: select the Tikhonov "
                   "weight by the discrepancy principle")
    p.add_argument("--tau", type=float, default=None,
                   help="with --noise: discrepancy safety factor (default 1)")


def _check_tikhonov_options(args) -> None:
    if args.lam is not None and args.noise is not None:
        raise InvalidInputError("--lambda and --noise are mutually exclusive")
    if args.tau is not None and args.noise is None:
        raise InvalidInputError("--tau is read only with --noise")


def _tikhonov(args, a, d):
    """``(lam, x)``: the Tikhonov solve at --lambda, or at the weight the
    discrepancy principle picks for --noise."""
    from . import regularization

    lam = args.lam
    if lam is None:
        tau = 1.0 if args.tau is None else args.tau
        lam = regularization.discrepancy_select(a, d, args.noise, tau)
    return lam, regularization.tikhonov_solve(a, d, lam)


def _cmd_analyze(args) -> tuple[str | None, dict]:
    from . import diagnostics
    from .fileio import read_matrix_csv
    from .linop import linear_parameter_identifiable

    kappa_threshold = (
        diagnostics.DEFAULT_KAPPA_THRESHOLD
        if args.kappa_threshold is None
        else args.kappa_threshold
    )
    diagnostics._check_kappa_threshold(kappa_threshold)  # before the SVD that --param runs
    a = read_matrix_csv(args.matrix)
    # the identifiability test needs singular vectors; running it first lets
    # diagnose read their singular values instead of a second, values-only SVD
    extra = {}
    if args.param is not None:
        q = read_matrix_csv(args.param)
        extra["parameter_identifiable"] = linear_parameter_identifiable(a, q, rtol=args.rtol)
    report = diagnostics.diagnose(a, rtol=args.rtol, kappa_threshold=kappa_threshold)
    return None, dict(zip(report._fields, report._values()), **extra)


def _cmd_solve(args) -> tuple[str | None, dict]:
    _check_tikhonov_options(args)
    if args.noise is not None and args.method == "tsvd":
        raise InvalidInputError("--noise selects a Tikhonov weight; not valid with tsvd")
    if args.lam is not None and args.method != "tikhonov":
        raise InvalidInputError("--lambda is read only by --method tikhonov")
    if args.k is not None and args.method != "tsvd":
        raise InvalidInputError("--k is read only by --method tsvd")
    if args.method == "tikhonov" and args.lam is None and args.noise is None:
        raise InvalidInputError("tikhonov requires --lambda or --noise")
    if args.method == "tsvd" and args.k is None:
        raise InvalidInputError("tsvd requires --k")

    from . import regularization
    from .fileio import read_matrix_csv, read_vector_csv, vector_to_csv

    a = read_matrix_csv(args.matrix)
    d = read_vector_csv(args.data)
    method = "tikhonov" if args.noise is not None else args.method
    if method == "tsvd":
        parameter, x = args.k, regularization.tsvd_solve(a, d, args.k)
    elif method == "tikhonov":
        parameter, x = _tikhonov(args, a, d)
    else:
        parameter, x = None, regularization.tikhonov_solve(a, d, 0.0)

    residual, norm = math.hypot(*(a.matrix @ x - d).tolist()), math.hypot(*x.tolist())
    if not (math.isfinite(residual) and math.isfinite(norm)):  # each alone: their sum may overflow
        raise NumericalFailureError("the residual or the solution norm overflows the float range")
    return vector_to_csv(x), {
        "method": method, "parameter": parameter, "residual": residual, "solution_norm": norm,
    }


def _cmd_fredholm_demo(args) -> tuple[str | None, dict]:
    _check_tikhonov_options(args)

    import numpy as np

    from . import fredholm
    from .fileio import table_to_csv

    result = fredholm.run_instability_experiment(args.n, args.n_osc)
    problem = fredholm.ramp_problem(args.n, args.n_osc)
    y, rhs = fredholm.ramp_rhs(args.n), problem.rhs

    header = ["y", "F_unperturbed", "F_perturbed", "f_recovered", "f_analytic"]
    columns = [
        y,
        y,  # F(y) = y
        rhs,
        fredholm.solve_unregularized(problem),
        fredholm.analytic_perturbed_solution(args.n, args.n_osc),
    ]
    summary = dict(zip(result._fields, result._values()))
    if args.lam is not None or args.noise is not None:
        lam, regularized = _tikhonov(args, problem.operator, rhs)
        header.append("f_regularized")
        columns.append(regularized)
        summary["lambda"] = lam
        summary["regularized_sup_deviation"] = float(np.max(np.abs(regularized - 1.0)))
    return table_to_csv(header, columns), summary


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


def _parse_probes(text: str) -> list[float]:
    """``count`` points from min to max, spaced as ``numpy.geomspace`` spaces them."""
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
    # no address space holds more 8-byte values
    if count > sys.maxsize // 8:
        raise InvalidInputError(f"--probes count {count} exceeds {sys.maxsize // 8}")
    # allocated whole first, so a count that cannot be held fails at once; the ends
    # are exact, the rest 10 ** (log10(min) + k * step) clamped to [min, max], so sorted
    probes = [hi] * count
    probes[0] = lo
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (count - 1)
    for k in range(1, count - 1):
        try:
            probes[k] = min(max(10.0 ** (start + k * step), lo), hi)
        except OverflowError:  # the exponents grow with k: the rest stay max
            break
    return probes


def _cmd_influence(args) -> tuple[str | None, dict]:
    from . import robustness
    from .fileio import read_distribution_csv, table_to_csv

    kind = _parse_functional(args.functional)
    probes = _parse_probes(args.probes)
    dist = read_distribution_csv(args.distribution)
    profile = robustness.influence_profile(kind, dist, probes)
    return table_to_csv(["probe", "influence"], [profile.probe_points, profile.values]), {
        "functional": args.functional,
        "gross_error_sensitivity": profile.gross_error_sensitivity,
        "asymptotic_variance": profile.asymptotic_variance,
    }


def _cmd_finite_check(args) -> tuple[str | None, dict]:
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
        return None, payload

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
    return None, {
        "max_domain": max_domain,
        "max_codomain": max_codomain,
        "theorem1_maps_checked": t1_checked,
        "theorem1_counterexamples": t1_bad,
        "theorem2_pairs_checked": t2_checked,
        "theorem2_disagreements": t2_bad,
    }


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
        table, report = _COMMANDS[args.command](args)
        first = json_flat(report) if table is None else table
        if args.out is None:
            sys.stdout.write(first)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(first)
        if table is not None:
            sys.stdout.write(json_flat(report))
        return 0
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
