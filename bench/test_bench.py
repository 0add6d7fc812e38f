"""Tests of the benchmark itself: span arithmetic, tracer wiring, output checks.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "illposed", *args],
        capture_output=True, text=True, cwd=cwd, env={"PYTHONPATH": SRC},
    )


# ---------------------------------------------------------------- span arithmetic

# root [0, 10] -> a [1, 4] -> a1 [2, 3]
#              -> b [5, 9] -> b1 [5, 6], b2 [7, 8.5]
NESTED = [
    ["cli.run", 0.0, 10.0, -1],
    ["fileio.read_matrix_csv", 1.0, 4.0, 0],
    ["fileio.json_flat", 2.0, 3.0, 1],
    ["linop.svd", 5.0, 9.0, 0],
    ["lapack.svd_thin", 5.0, 6.0, 3],
    ["lapack.svd_full", 7.0, 8.5, 3],
]


def test_self_times_of_nested_tree():
    assert tracing.self_times(NESTED) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(tracing.self_times(NESTED)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["cli.run", 0.0, 10.0, -1], ["a.x", 1.0, 3.0, 0], ["a.y", 2.0, 4.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(7.0)


def test_layer_self_times_add_up_to_root():
    trace = {
        "import_s": 0.5, "spans": NESTED, "counts": {}, "svd_shapes": [],
        "dense_n": [], "parse_bytes": 0, "sections_cache": [0, 0],
    }
    m = tracing.invocation_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["fileio.parse_s"] == pytest.approx(2.0)
    assert m["fileio.serialize_s"] == pytest.approx(1.0)
    assert m["linop.svd_s"] == pytest.approx(1.5)
    assert m["lapack.svd_s"] == pytest.approx(2.5)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(m["trace.root_s"])


def test_gflop_counts_follow_golub_van_loan():
    assert tracing.gflop_computed("thin", 1000, 1000) == pytest.approx(22.0)
    assert tracing.gflop_computed("full", 1000, 1000) == pytest.approx(21.0)
    assert tracing.gflop_computed("values_only", 1000, 1000) == pytest.approx(8 / 3)
    assert tracing.gflop_computed("thin", 10, 2000) == tracing.gflop_computed("thin", 2000, 10)


# ---------------------------------------------------------------- tracer wiring


def test_aliases_are_rebound_and_restored():
    import illposed.cli
    from illposed import diagnostics, linop, regularization
    from illposed.linop import DenseOperator

    original_svd, original_lapack = linop.svd, np.linalg.svd
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        a = DenseOperator(np.diag([3.0, 2.0, 0.0]))
        regularization.tikhonov_solve(a, np.ones(3), 0.1)
        diagnostics.diagnose(a)
        illposed.cli.linear_parameter_identifiable(a, DenseOperator(np.eye(3)[:1]))
    finally:
        restore()
    assert regularization.svd is original_svd and diagnostics.svd is original_svd
    assert np.linalg.svd is original_lapack

    m = tracing.invocation_metrics(tracer.to_dict(import_s=0.0))
    assert m["linop.svd_calls"] == 2
    assert m["linop.null_space_calls"] == 1
    assert m["lapack.svd_thin_calls"] == 2
    assert m["lapack.svd_full_calls"] == 1
    assert m["lapack.svd_calls"] == 3
    names = [s[0] for s in tracer.spans]
    parents = {names[i]: names[s[3]] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    assert parents["lapack.svd_full"] == "linop.null_space"
    assert parents["linop.null_space"] == "linop.linear_parameter_identifiable"


def test_traced_child_keeps_stdout(tmp_path):
    args = ["finite-check", "--max-domain", "2", "--max-codomain", "2"]
    plain = run_cli(*args)
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(tmp_path / "t.json"), *args],
        capture_output=True, text=True, env={"PYTHONPATH": SRC},
    )
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    m = tracing.invocation_metrics(json.loads((tmp_path / "t.json").read_text()))
    assert m["finite_maps.pairs_checked"] == json.loads(plain.stdout)["theorem2_pairs_checked"]
    assert m["finite_maps.theorem2_s"] > 0


# ---------------------------------------------------------------- output checks

SWEEP = workloads.Invocation(["finite-check"], workloads.check_sweep(2, 2))


def test_checker_accepts_real_output():
    out = run_cli("finite-check", "--max-domain", "2", "--max-codomain", "2")
    assert workloads.judge(SWEEP, out.returncode, out.stdout, out.stderr) == workloads.Verdict(
        False, True
    )
    demo = workloads.Invocation(["fredholm-demo"], workloads.check_fredholm(200, 2, lam=1e-4))
    out = run_cli("fredholm-demo", "--n", "200", "--n-osc", "2", "--lambda", "1e-4")
    assert workloads.judge(demo, out.returncode, out.stdout, out.stderr).correct


def test_checker_rejects_corrupted_json_value():
    out = run_cli("finite-check", "--max-domain", "2", "--max-codomain", "2")
    bad = out.stdout.replace('"theorem2_disagreements": 0', '"theorem2_disagreements": 1')
    assert bad != out.stdout
    verdict = workloads.judge(SWEEP, 0, bad, "")
    assert verdict.failed and not verdict.correct

    demo = workloads.Invocation(["fredholm-demo"], workloads.check_fredholm(200, 2))
    out = run_cli("fredholm-demo", "--n", "200", "--n-osc", "2")
    lines = out.stdout.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if '"amplification"' in line)
    lines[k] = '  "amplification": 1.5,\n'
    assert not workloads.judge(demo, 0, "".join(lines), "").correct


def test_checker_rejects_unexpected_exit_code():
    verdict = workloads.judge(SWEEP, 2, "", "error: bad input")
    assert verdict.failed and not verdict.correct
    tolerant = workloads.Invocation(["influence"], SWEEP.check, tolerated={3: "converge"})
    verdict = workloads.judge(tolerant, 3, "", "error: quotient did not converge")
    assert verdict.failed and verdict.correct
    assert not workloads.judge(tolerant, 3, "", "error: something else").correct
    assert not workloads.judge(tolerant, 2, "", "did not converge").correct


def test_only_the_large_trimmed_profile_is_a_probe(tmp_path):
    # the timed passes hold only invocations that succeed on every seed
    invs = workloads.build("finite-influence", 1, tmp_path)
    probes = [inv.argv for inv in invs if inv.probe]
    assert probes == [["influence", f"normal_{workloads.M_LARGE}.csv", "--functional",
                       f"trimmed:{workloads.TRIM}", "--probes", workloads.PROBES_ARG]]
    assert all(not inv.tolerated for inv in invs if not inv.probe)


# ---------------------------------------------------------------- harness


def test_run_refuses_directory_without_source(tmp_path):
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "dense-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert res.returncode != 0
    assert res.stdout == ""
