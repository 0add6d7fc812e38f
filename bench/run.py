"""Benchmark of the illposed CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from its
``src/``.  Inputs are generated from the seed into ``.bench_work/`` and
removed afterwards.  The loop is closed with one client: each CLI
invocation is a fresh subprocess started only after the previous one
exited, as a user's script would run them.  Each invocation's output is
checked (see ``workloads.py``).

One run:

1. ``setup_s``: median wall time of a fresh interpreter running
   ``import illposed.cli`` (SETUP_SAMPLES samples).
2. One cold invocation (the workload's first), reported on its own.
   Then each probe invocation once (see ``workloads.Invocation``): its
   outcome is printed and a wrong answer makes ``correct`` false, but it is
   not in ``attempted`` or ``failed``, so those do not depend on whether
   the seed's input trips a known defect.
3. Passes over the workload's invocation list until ``--seconds`` have
   elapsed.  With ``--trace 0`` every pass is untraced; ``wall_s`` sums
   each invocation's median wall time over the passes and ``peak_rss_mb``
   is the median over passes of the largest child max-RSS.  With
   ``--trace 1`` one untraced pass
   is followed by passes under ``tracing.py``; the per-layer metrics are
   medians over the traced passes and ``trace.overhead_ratio`` compares
   the two.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics named in ``BENCHMARK.json``.  BLAS threads are left at the
library default.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
SUBCOMMANDS = ("analyze", "solve", "fredholm-demo", "finite-check", "influence")


@dataclass
class Outcome:
    """One finished invocation."""

    inv: workloads.Invocation
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    digest: str
    verdict: workloads.Verdict
    trace: dict | None = None


class Runner:
    """Spawns CLI invocations one at a time inside the work directory."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.src = (root / "src").resolve()

    def spawn(self, cmd: list[str]) -> tuple[float, int, object]:
        """Wall time, exit code and the child's own rusage."""
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def check_source(self) -> None:
        """Refuse to measure an illposed that is not this checkout's."""
        code = "import illposed.cli, sys; sys.stdout.write(illposed.cli.__file__)"
        _, status, _ = self.spawn([sys.executable, "-c", code])
        origin = (self.work / "stdout").read_text()
        if status != 0 or not Path(origin).resolve().is_relative_to(self.src):
            raise SystemExit(f"illposed.cli does not import from {self.src}: {origin!r}")

    def time_import(self) -> float:
        wall, status, _ = self.spawn([sys.executable, "-c", "import illposed.cli"])
        if status != 0:
            raise SystemExit("import illposed.cli failed")
        return wall

    def invoke(self, inv: workloads.Invocation, traced: bool) -> Outcome:
        trace_path = self.work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(trace_path), *inv.argv]
        else:
            cmd = [sys.executable, "-m", "illposed", *inv.argv]
        wall, code, usage = self.spawn(cmd)
        stdout = (self.work / "stdout").read_bytes()
        stderr = (self.work / "stderr").read_text(errors="replace")
        verdict = workloads.judge(inv, code, stdout.decode(errors="replace"), stderr)
        trace = None
        if traced:
            if trace_path.exists():
                trace = json.loads(trace_path.read_text())
            else:
                verdict = workloads.Verdict(True, False, "traced run wrote no trace")
        return Outcome(
            inv=inv,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024,
            digest=hashlib.sha256(stdout).hexdigest(),
            verdict=verdict,
            trace=trace,
        )


# ---------------------------------------------------------------- environment


def blas_threads_and_config() -> tuple[str, str]:
    """OpenBLAS thread count and build string, read from the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return str(threads()), config().decode()
    return "unknown", "unknown"


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = blas_threads_and_config()
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
        f"({config.strip()})"
    )


# ---------------------------------------------------------------- passes


def run_pass(runner: Runner, invs, traced: bool) -> list[Outcome]:
    return [runner.invoke(inv, traced) for inv in invs]


def pass_wall(outcomes) -> float:
    return sum(o.wall_s for o in outcomes)


def typical_walls(passes) -> list[float]:
    """Each invocation's median wall time over the passes.

    Their sum is the typical pass time; it is steadier than the median of
    pass totals because a burst of machine noise inflates one invocation
    of one pass, not every invocation of it."""
    return [statistics.median(p[i].wall_s for p in passes) for i in range(len(passes[0]))]


def subcommand_times(invs, walls) -> dict[str, float]:
    times = dict.fromkeys(SUBCOMMANDS, 0.0)
    for inv, wall in zip(invs, walls):
        times[inv.subcommand] += wall
    return {f"{cmd.replace('-', '_')}_s": t for cmd, t in times.items()}


def layer_metrics(outcomes) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its invocations.

    An invocation that wrote no trace is already judged wrong; it adds
    only its process numbers."""
    total = Counter()
    for o in outcomes:
        if o.trace is None:
            continue
        m = tracing.invocation_metrics(o.trace)
        total.update(m)
        total["trace.unaccounted_s"] += o.wall_s - m["startup.import_s"] - m["trace.root_s"]
    wall = pass_wall(outcomes)
    cpu = sum(o.cpu_s for o in outcomes)
    total["process.cpu_s"] = cpu
    total["process.cpu_per_wall"] = cpu / wall
    total["process.max_rss_mb"] = max(o.max_rss_mb for o in outcomes)
    svd_s = total["lapack.svd_s"]
    total["lapack.svd_gflops"] = total["lapack.svd_gflop_computed"] / svd_s if svd_s else 0.0
    theorem2_s = total["finite_maps.theorem2_s"]
    total["finite_maps.pairs_per_s"] = total["finite_maps.pairs_checked"] / theorem2_s if theorem2_s else 0.0
    lookups = total.pop("finite_maps.sections_cache_lookups", 0)
    hits = total.pop("finite_maps.sections_cache_hits", 0)
    total["finite_maps.sections_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    total["trace.wall_s"] = wall
    return dict(total)


def accounting_lines(outcomes) -> list[str]:
    """Per-invocation split of traced wall time into start-up, layer self
    times and the remainder the tracer cannot see."""
    lines = ["  traced wall = import + layer self times + unaccounted (s):"]
    for o in (o for o in outcomes if o.trace is not None):
        m = tracing.invocation_metrics(o.trace)
        layers = "  ".join(
            f"{layer}={m[f'{layer}.self_s']:.3f}" for layer in tracing.LAYERS
            if m[f"{layer}.self_s"] > 0.0005
        )
        rest = o.wall_s - m["startup.import_s"] - m["trace.root_s"]
        lines.append(
            f"    {' '.join(o.inv.argv)[:60]:60s} wall={o.wall_s:.3f} "
            f"import={m['startup.import_s']:.3f}  {layers}  unaccounted={rest:.3f}"
        )
    return lines


def describe(name: str, values: list[float], unit: str) -> str:
    q = f" min {min(values):.4g} max {max(values):.4g}" if len(values) > 1 else ""
    return f"  {name:28s} median {statistics.median(values):.6g} {unit}{q} (n={len(values)})"


# ---------------------------------------------------------------- main


def measure(args, runner: Runner) -> dict:
    print(f"illposed benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: {environment()}")
    runner.check_source()
    built = workloads.build(args.workload, args.seed, runner.work)
    invs = [inv for inv in built if not inv.probe]

    setup = [runner.time_import() for _ in range(SETUP_SAMPLES)]
    cold = runner.invoke(invs[0], traced=False)
    print(describe("setup_s (import illposed.cli)", setup, "s"))
    print(f"  {'cold_s':28s} {cold.wall_s:.6g} s  (first invocation of the run: "
          f"{' '.join(cold.inv.argv)[:60]})")
    probes = [runner.invoke(inv, traced=False) for inv in built if inv.probe]
    for o in probes:
        outcome = o.verdict.problem if o.verdict.failed else "exit 0, output checked"
        print(f"  probe (once, not in attempted/failed): {' '.join(o.inv.argv)[:70]}: "
              f"{'failed' if o.verdict.failed else 'ok'}: {outcome}")

    start = time.perf_counter()
    reference = run_pass(runner, invs, traced=False) if args.trace else None
    passes = []
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(runner, invs, traced=bool(args.trace)))

    every = [cold] + (reference or []) + [o for p in passes for o in p]
    wrong = [o for o in every + probes if not o.verdict.correct]
    failed = [o for o in every if o.verdict.failed]
    digests = [{o.digest for o in every if o.inv is inv} for inv in invs]
    stable = all(len(d) == 1 for d in digests)
    label = "traced passes" if args.trace else "passes"
    print(f"{len(passes)} closed-loop {label}, 1 client, {len(invs)} invocations each")

    if args.trace:
        per_pass = [layer_metrics(p) for p in passes]
        keys = set().union(*per_pass)
        metrics = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}
        metrics["trace.overhead_ratio"] = statistics.median(
            pass_wall(p) for p in passes) / pass_wall(reference)
        metrics["startup.cold_s"] = cold.wall_s
        for key, value in subcommand_times(invs, [o.wall_s for o in reference]).items():
            metrics[f"cmd.{key}"] = value
        print("\n".join(accounting_lines(passes[0])))
    else:
        walls = typical_walls(passes)
        rss = [max(o.max_rss_mb for o in p) for p in passes]
        totals = [pass_wall(p) for p in passes]
        print(f"  {'wall_s':28s} {sum(walls):.6g} s (sum of per-invocation medians over "
              f"{len(passes)} passes; pass totals {min(totals):.4g} to {max(totals):.4g} s)")
        for key, value in subcommand_times(invs, walls).items():
            if value:
                print(f"  {key:28s} {value:.6g} s")
        print(describe("peak_rss_mb", rss, "MB"))
        metrics = {
            "wall_s": sum(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }
    print(f"  {'failed_ratio':28s} {len(failed)}/{len(every)} = {len(failed) / len(every):.4g}")
    for o in {id(o.inv): o for o in failed}.values():
        print(f"  failed: {' '.join(o.inv.argv)[:70]}: {o.verdict.problem}")
    print(f"checks: {len(every)} invocations, {len(wrong)} wrong, {len(failed)} failed; "
          f"stdout identical across passes{' and tracing' if args.trace else ''}: "
          f"{'yes' if stable else 'NO'}")
    # a metric is missing only when every traced invocation crashed; correct is false then
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    reported = {name: {"value": metrics.get(name, 0.0), "unit": u} for name, u in units.items()}
    for name, m in reported.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not wrong and stable,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": reported,
    }


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "illposed" / "cli.py").is_file():
        print(f"error: no illposed source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, Runner(root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
