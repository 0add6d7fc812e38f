"""Spans and counters around the illposed modules, from outside the program.

Run as a script, this module executes one CLI invocation in a fresh
interpreter, exactly as ``python -m illposed`` would, with every listed
module entry point wrapped:

    python bench/tracing.py OUT.json ARGV...

The trace (import time, spans, counts, SVD shapes) is written to OUT.json
when the invocation ends; stdout and stderr are the CLI's own.  The module
imports only the standard library at top level, so ``import illposed.cli``
is timed with numpy included.

Spans go on module entry points only.  Hot inner functions get a call
count without a span, because a span per call would distort the sweep
and influence timings they sit inside.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

# layer -> functions that get a span
SPANNED = {
    "fileio": [
        "read_matrix_csv", "read_vector_csv", "read_distribution_csv",
        "matrix_to_csv", "vector_to_csv", "table_to_csv", "json_flat",
    ],
    "linop": [
        "svd", "pseudoinverse", "hat_operator", "model_resolution",
        "is_identifiable_linear", "null_space", "linear_parameter_identifiable",
    ],
    "diagnostics": [
        "diagnose", "bounded_away_from_zero", "stability_bound_check",
        "perturbation_amplification", "spectrum_decay",
    ],
    "regularization": [
        "tikhonov_solve", "tsvd_solve", "discrepancy_select", "restriction_sequence",
        "solve_with", "filter_factors",
    ],
    "fredholm": [
        "run_instability_experiment", "ramp_problem", "heaviside_operator",
        "solve_unregularized", "analytic_perturbed_solution", "ramp_rhs",
    ],
    "robustness": ["influence_profile", "sensitivity_attack"],
    "finite_maps": [
        "check_fisher_consistency_theorem", "check_parameter_equivalence_theorem",
        "parse_finite_map", "format_finite_map", "fisher_consistent_estimator",
        "is_injective", "restrict_to_range",
    ],
}

# layer -> hot functions that are only counted
COUNTED = {
    "fileio": ["fmt_float"],
    "robustness": ["influence_function", "evaluate", "contaminate"],
    "finite_maps": ["parameter_identifiable_standard"],
}

PARSERS = {"fileio.read_matrix_csv", "fileio.read_vector_csv", "fileio.read_distribution_csv"}
ROOT = "cli.run"


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.svd_shapes: list[tuple[str, int, int]] = []
        self.dense_n: list[int] = []
        self.parse_bytes = 0

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def spanned(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        failures = name + ".failures"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[failures] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _notes(self):
        def parsed(path, *args, **kwargs):
            self.parse_bytes += os.path.getsize(path)

        def dense(n, *args, **kwargs):
            self.dense_n.append(int(n))

        notes = {f"fileio.{fn}": parsed for fn in ("read_matrix_csv", "read_vector_csv",
                                                   "read_distribution_csv")}
        notes["fredholm.heaviside_operator"] = dense
        return notes

    def install(self):
        """Wrap every listed function and rebind each module attribute that
        refers to it, so ``from .linop import svd`` aliases are traced too.
        Returns a function that restores the originals."""
        import numpy as np

        modules = [importlib.import_module("illposed")] + [
            importlib.import_module(f"illposed.{name}")
            for name in ("cli", *SPANNED)
        ]
        notes = self._notes()
        wrappers = {}
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"illposed.{layer}")
            for fn in names:
                orig = getattr(mod, fn)
                name = f"{layer}.{fn}"
                wrappers[id(orig)] = (orig, self.spanned(name, orig, notes.get(name)))
        for layer, names in COUNTED.items():
            mod = importlib.import_module(f"illposed.{layer}")
            for fn in names:
                orig = getattr(mod, fn)
                wrappers[id(orig)] = (orig, self.counted(f"{layer}.{fn}", orig))

        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        lapack_svd = np.linalg.svd
        signature = inspect.signature(lapack_svd)

        def svd(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            given = bound.arguments
            if not given["compute_uv"]:
                kind = "values_only"
            else:
                kind = "full" if given["full_matrices"] else "thin"
            m, n = np.shape(given["a"])[-2:]
            self.svd_shapes.append((kind, int(m), int(n)))
            return self.call(f"lapack.svd_{kind}", lapack_svd, *args, **kwargs)

        undo.append((np.linalg, "svd", lapack_svd))
        np.linalg.svd = svd

        def restore():
            for mod, attr, value in reversed(undo):
                setattr(mod, attr, value)

        return restore

    def sections_cache(self) -> tuple[int, int]:
        from illposed import finite_maps

        info = finite_maps.enumerate_sections.cache_info()
        return info.hits, info.misses

    def to_dict(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "spans": self.spans,
            "counts": dict(self.counts),
            "svd_shapes": self.svd_shapes,
            "dense_n": self.dense_n,
            "parse_bytes": self.parse_bytes,
            "sections_cache": self.sections_cache(),
        }


# ---------------------------------------------------------------- analysis


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def gflop_computed(kind: str, m: int, n: int) -> float:
    """Operation count of one SVD from the Golub-Reinsch column of the
    Golub & Van Loan table (Matrix Computations, 4th ed., section 8.6):
    values only 4mn^2 - 4n^3/3; thin U1, V 14mn^2 + 8n^3; full U, V
    4m^2n + 8mn^2 + 9n^3; with m >= n (a wide matrix is transposed)."""
    m, n = max(m, n), min(m, n)
    if kind == "values_only":
        flops = 4 * m * n**2 - 4 * n**3 / 3
    elif kind == "thin":
        flops = 14 * m * n**2 + 8 * n**3
    else:
        flops = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3
    return flops / 1e9


LAYERS = ("cli", "fileio", "linop", "lapack", "diagnostics", "regularization",
          "fredholm", "robustness", "finite_maps")


def invocation_metrics(trace: dict) -> Counter:
    """Per-layer numbers of one traced invocation.

    ``<layer>.self_s`` over all layers plus ``startup.import_s`` add up to
    the invocation's wall time minus what the tracer cannot see
    (interpreter start and exit), which the caller reports as unaccounted.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    self_by_name: Counter = Counter()
    total_by_name: Counter = Counter()
    calls: Counter = Counter()
    root_s = 0.0
    for (name, start, end, parent), own in zip(spans, selfs):
        self_by_name[name] += own
        total_by_name[name] += end - start
        calls[name] += 1
        if parent < 0:
            root_s += end - start

    def layer_self(layer):
        return sum(v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer)

    counts = trace["counts"]
    hits, misses = trace["sections_cache"]
    svd_calls = Counter(kind for kind, _, _ in trace["svd_shapes"])
    m = Counter()
    m["startup.import_s"] = trace["import_s"]
    m["trace.root_s"] = root_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    m["fileio.parse_s"] = sum(self_by_name[k] for k in PARSERS)
    m["fileio.serialize_s"] = layer_self("fileio") - m["fileio.parse_s"]
    m["fileio.parse_mb"] = trace["parse_bytes"] / 1e6
    m["fileio.fmt_float_calls"] = counts.get("fileio.fmt_float", 0)
    for fn in ("svd", "null_space", "pseudoinverse"):
        m[f"linop.{fn}_calls"] = calls[f"linop.{fn}"]
        m[f"linop.{fn}_s"] = self_by_name[f"linop.{fn}"]
    m["lapack.svd_calls"] = sum(svd_calls.values())
    for kind in ("thin", "full", "values_only"):
        m[f"lapack.svd_{kind}_calls"] = svd_calls[kind]
    m["lapack.svd_s"] = layer_self("lapack")
    m["lapack.svd_gflop_computed"] = sum(gflop_computed(*s) for s in trace["svd_shapes"])
    m["diagnostics.diagnose_s"] = self_by_name["diagnostics.diagnose"]
    for fn in ("discrepancy_select", "tikhonov_solve", "tsvd_solve"):
        m[f"regularization.{fn}_s"] = self_by_name[f"regularization.{fn}"]
    m["fredholm.experiment_s"] = total_by_name["fredholm.run_instability_experiment"]
    m["fredholm.dense_operator_builds"] = len(trace["dense_n"])
    m["fredholm.dense_mb_computed"] = sum(8 * n * n for n in trace["dense_n"]) / 1e6
    m["robustness.influence_profile_s"] = total_by_name["robustness.influence_profile"]
    for fn in ("influence_function", "evaluate", "contaminate"):
        m[f"robustness.{fn}_calls"] = counts.get(f"robustness.{fn}", 0)
    m["robustness.quotient_failures"] = counts.get("robustness.influence_function.failures", 0)
    m["finite_maps.theorem1_s"] = total_by_name["finite_maps.check_fisher_consistency_theorem"]
    m["finite_maps.theorem2_s"] = total_by_name["finite_maps.check_parameter_equivalence_theorem"]
    m["finite_maps.pairs_checked"] = counts.get("finite_maps.parameter_identifiable_standard", 0)
    m["finite_maps.sections_cache_hits"] = hits
    m["finite_maps.sections_cache_lookups"] = hits + misses
    return m


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import illposed.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.call(ROOT, illposed.cli.run, cli_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
