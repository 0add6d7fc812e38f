"""Seeded inputs, invocation lists and output checks for the benchmark workloads.

Each workload is a list of ``illposed`` CLI invocations.  The program only
ever sees the files written here; every expectation is computed in this
module from a closed form or an independent numpy computation (normal
equations, a symmetric eigendecomposition, a direct trimmed-mean
formula), never from the library itself and never by comparing bytes.

Workloads (the rationale is repeated in ``BENCHMARK.json``):

``dense-solve``
    Cumulative operator at n = 1000 with the n_osc = 8 ramp right-hand side
    plus seeded noise: ``solve`` four ways and ``fredholm-demo`` three ways.
    Eight full SVDs of one operator per pass, plus large CSV output.
``dense-analyze``
    One factorization per invocation, used for classification: the
    cumulative operator at n = 2000 and n = 256, and a seeded rank-deficient
    1000 x 1000 operator with a parameter map.
``finite-influence``
    Pure-Python work: finite-map sweeps, seeded single-map checks and
    influence profiles of N(0, 1) samples at m = 1000.  The m = 5000
    trimmed-mean profile, which currently exits 3 on most seeds (the
    epsilon-ladder quotient does not converge), is a probe: it runs once
    per run, outside the timed passes, and its outcome is printed on its
    own so the defect stays visible without making the failure count of a
    run depend on the seed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

N_SOLVE = 1000
N_OSC = 8
N_BIG = 2000
N_SMALL = 256
N_RANKDEF = 1000
NOISE_SD = 1e-3
M_SMALL = 1000
M_LARGE = 5000
TRIM = 0.25
PROBES = (0.5, 50.0, 16)
PROBES_ARG = f"{PROBES[0]}:{PROBES[1]}:{PROBES[2]}"


class CheckError(Exception):
    """An invocation's output disagrees with its expectation."""


@dataclass
class Invocation:
    """One CLI call and how to judge it.

    ``check`` raises CheckError on a wrong stdout.  ``tolerated`` maps a
    non-zero exit code the CLI contract allows for this input to a phrase
    its stderr must contain; such an exit counts as a failure but not as a
    wrong answer.  Any other non-zero exit code is a wrong answer.  A
    ``probe`` runs once per run, outside the timed passes.
    """

    argv: list[str]
    check: Callable[[str], None]
    tolerated: dict[int, str] = field(default_factory=dict)
    probe: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Verdict:
    failed: bool
    correct: bool
    problem: str = ""


def judge(inv: Invocation, code: int, stdout: str, stderr: str) -> Verdict:
    """Classify one finished invocation.

    Exit 0 with a passing check is a success.  A tolerated exit code with
    its stderr phrase is a failure with a correct outcome.  Anything else
    is a failure with a wrong outcome.
    """
    if code == 0:
        try:
            inv.check(stdout)
        except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            return Verdict(True, False, f"output check: {exc}")
        return Verdict(False, True)
    phrase = inv.tolerated.get(code)
    if phrase is not None and phrase in stderr:
        return Verdict(True, True, f"exit {code}: {stderr.strip()[:160]}")
    return Verdict(True, False, f"unexpected exit {code}: {stderr.strip()[:160]}")


# ---------------------------------------------------------------- output parsing


def split_output(stdout: str) -> tuple[list[str], dict]:
    """CSV lines and the trailing flat JSON object the CLI prints."""
    lines = stdout.splitlines()
    try:
        start = lines.index("{")
    except ValueError:
        raise CheckError("no JSON object in stdout") from None
    return lines[:start], json.loads("\n".join(lines[start:]))


def csv_columns(lines: list[str], header: list[str] | None) -> dict[str, np.ndarray]:
    if header is not None:
        if not lines or lines[0].split(",") != header:
            raise CheckError(f"CSV header {lines[:1]} != {header}")
        lines = lines[1:]
    else:
        header = ["x"]
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    if table.ndim != 2 or table.shape[1] != len(header):
        raise CheckError(f"CSV shape {table.shape} does not fit {len(header)} columns")
    return {name: table[:, k] for k, name in enumerate(header)}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def expect_close(name: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    worst = int(np.argmax(err - limit)) if err.size else 0
    expect(
        bool(np.all(err <= limit)),
        f"{name}: |{got.flat[worst]!r} - {want.flat[worst]!r}| exceeds tolerance",
    )


def expect_equal(payload: dict, want: dict) -> None:
    for key, value in want.items():
        expect(payload.get(key) == value, f"{key}: {payload.get(key)!r} != {value!r}")


# ---------------------------------------------------------------- input files


def fmt(x: float) -> str:
    """17 significant digits, the format the CLI emits."""
    return format(float(x), ".17g")


def write_vector(path: Path, v: np.ndarray) -> None:
    path.write_text("".join(fmt(x) + "\n" for x in v))


def write_matrix(path: Path, a: np.ndarray) -> None:
    with path.open("w") as fh:
        for row in a:
            fh.write(",".join(map(fmt, row)) + "\n")


def write_cumulative(path: Path, n: int) -> None:
    """The n x n cumulative operator: h on and below the diagonal, 0 above."""
    h, zero = fmt(1.0 / n), fmt(0.0)
    with path.open("w") as fh:
        for i in range(n):
            fh.write(",".join([h] * (i + 1) + [zero] * (n - i - 1)) + "\n")


def cumulative(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n))) / n


def cumulative_spectrum(n: int) -> np.ndarray:
    """Closed-form singular values h / (2 sin((2k-1) pi / (4n+2))), descending."""
    k = np.arange(1, n + 1)
    return (1.0 / n) / (2.0 * np.sin((2 * k - 1) * math.pi / (4 * n + 2)))


# ---------------------------------------------------------------- references


def tikhonov_reference(a: np.ndarray, d: np.ndarray, lam: float) -> np.ndarray:
    """Tikhonov minimizer from the normal equations (no SVD)."""
    return np.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]), a.T @ d)


def tsvd_reference(a: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """TSVD solution from the eigendecomposition of A^T A (no SVD)."""
    evals, evecs = np.linalg.eigh(a.T @ a)
    top = evecs[:, np.argsort(evals)[::-1][:k]]
    top_evals = np.sort(evals)[::-1][:k]
    return top @ ((top.T @ (a.T @ d)) / top_evals)


def trimmed_mean(x: np.ndarray, w: np.ndarray, alpha: float) -> float:
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    hi = np.cumsum(w)
    kept = np.clip(np.minimum(hi, 1 - alpha) - np.maximum(hi - w, alpha), 0, None)
    return float(kept @ x / (1 - 2 * alpha))


def trimmed_influence(x: np.ndarray, w: np.ndarray, alpha: float, y: float) -> float:
    """One-sided derivative toward a point mass at y.

    The trimmed mean is piecewise linear in the contamination weight, so a
    step far below every atom weight gives the derivative up to rounding.
    """
    eps = 1e-7
    base = trimmed_mean(x, w, alpha)
    hit = np.nonzero(x == y)[0]
    if hit.size:
        w2 = w * (1 - eps)
        w2[hit[0]] += eps
        return (trimmed_mean(x, w2, alpha) - base) / eps
    return (trimmed_mean(np.append(x, y), np.append(w * (1 - eps), eps), alpha) - base) / eps


# ---------------------------------------------------------------- checks


def check_solution(a, d, x_ref, method, parameter, rtol):
    def check(stdout: str) -> None:
        lines, payload = split_output(stdout)
        x = csv_columns(lines, None)["x"]
        expect_close("solution", x, x_ref, 0.0, rtol * max(1.0, float(np.max(np.abs(x_ref)))))
        expect_equal(payload, {"method": method, "parameter": parameter})
        residual = float(np.linalg.norm(a @ x - d))
        expect_close("residual", payload["residual"], residual, 1e-6, 1e-9 * np.linalg.norm(d))
        expect_close("solution_norm", payload["solution_norm"], np.linalg.norm(x_ref), rtol)

    return check


def check_discrepancy_solution(a, d, noise, rtol):
    def check(stdout: str) -> None:
        lines, payload = split_output(stdout)
        x = csv_columns(lines, None)["x"]
        expect(payload["method"] == "tikhonov", f"method {payload['method']!r}")
        lam = payload["parameter"]
        expect(isinstance(lam, float) and lam > 0, f"lambda {lam!r}")
        x_ref = tikhonov_reference(a, d, lam)
        expect_close("solution", x, x_ref, 0.0, rtol * float(np.max(np.abs(x_ref))))
        residual = float(np.linalg.norm(a @ x - d))
        expect_close("discrepancy residual", residual, noise, 0.0101)
        expect_close("residual", payload["residual"], residual, 1e-6)

    return check


def check_fredholm(n, n_osc, lam=None, noise=None):
    grid = np.arange(1, n + 1) / n
    delta = 1.0 / (2.0 * n_osc * math.pi)
    rhs = grid + delta * np.sin(grid / delta)
    recovered = np.diff(rhs, prepend=0.0) * n
    a = cumulative(n)
    header = ["y", "F_unperturbed", "F_perturbed", "f_recovered", "f_analytic"]
    if lam is not None or noise is not None:
        header.append("f_regularized")
    fixed_ref = None if lam is None else tikhonov_reference(a, rhs, lam)

    def check(stdout: str) -> None:
        lines, payload = split_output(stdout)
        cols = csv_columns(lines, header)
        expect_close("y", cols["y"], grid, 1e-15)
        expect_close("F_unperturbed", cols["F_unperturbed"], grid, 1e-15)
        expect_close("F_perturbed", cols["F_perturbed"], rhs, 1e-12, 1e-15)
        expect_close("f_recovered", cols["f_recovered"], recovered, 0.0, 1e-9)
        expect_close("f_analytic", cols["f_analytic"], 1.0 + np.cos(grid / delta), 0.0, 1e-12)
        expect_close("delta", payload["delta"], delta, 1e-15)
        expect_close("amplification", payload["amplification"], 2 * n_osc * math.pi, 0.10)
        expect_close("rhs_dev", payload["rhs_dev"], np.max(np.abs(rhs - grid)), 1e-9)
        expect_close("sol_dev", payload["sol_dev"], np.max(np.abs(recovered - 1.0)), 1e-9)
        if lam is None and noise is None:
            expect("lambda" not in payload, "unexpected lambda in plain demo")
            return
        reg = cols["f_regularized"]
        if lam is not None:
            expect(payload["lambda"] == lam, f"lambda {payload['lambda']!r} != {lam!r}")
            ref = fixed_ref
        else:
            ref = tikhonov_reference(a, rhs, payload["lambda"])
            residual = float(np.linalg.norm(a @ reg - rhs))
            expect_close("discrepancy residual", residual, noise, 0.0101)
        expect_close("f_regularized", reg, ref, 0.0, 1e-7 * float(np.max(np.abs(ref))))
        expect_close(
            "regularized_sup_deviation",
            payload["regularized_sup_deviation"],
            np.max(np.abs(reg - 1.0)),
            1e-9,
        )

    return check


def check_analyze(spectrum, rank, cols, classification, rtol, param=None):
    """``spectrum`` is the expected full singular value sequence, descending."""
    sigma_max = float(spectrum[0])
    kept = spectrum[:rank]

    def check(stdout: str) -> None:
        _, payload = split_output(stdout)
        expect_equal(
            payload,
            {
                "identifiable": rank == cols,
                "numerical_rank": rank,
                "classification": classification,
            },
        )
        got = np.array(payload["spectrum"], dtype=float)
        expect_close("spectrum", got, spectrum, 0.0, rtol * sigma_max)
        expect_close("sigma_max", payload["sigma_max"], sigma_max, rtol)
        expect_close("sigma_min", payload["sigma_min"], kept[-1], rtol)
        expect_close("stability_constant", payload["stability_constant"], kept[-1], rtol)
        expect_close("condition_number", payload["condition_number"], sigma_max / kept[-1], rtol)
        if rank == cols:
            k = np.arange(2, cols + 1, dtype=float)
            slope = np.polyfit(np.log(k), np.log(spectrum[1:]), 1)[0]
            expect_close("decay_exponent", payload["decay_exponent"], slope, 1e-6)
        else:
            expect(math.isfinite(payload["decay_exponent"]), "decay_exponent not finite")
        if param is not None:
            expect_equal(payload, {"parameter_identifiable": param})

    return check


def check_payload(want: dict):
    """A JSON-only output that must equal ``want`` exactly (integers and booleans)."""

    def check(stdout: str) -> None:
        lines, payload = split_output(stdout)
        expect(not lines and payload == want, f"{payload} != {want}")

    return check


def check_sweep(max_domain: int, max_codomain: int):
    maps = {d: sum(c**d for c in range(1, max_codomain + 1)) for d in range(1, max_domain + 1)}
    want = {
        "max_domain": max_domain,
        "max_codomain": max_codomain,
        "theorem1_maps_checked": sum(maps.values()),
        "theorem1_counterexamples": 0,
        "theorem2_pairs_checked": sum(v * v for v in maps.values()),
        "theorem2_disagreements": 0,
    }
    return check_payload(want)


def map_text(table, codomain: int) -> str:
    return f"{len(table)} {codomain} : {','.join(map(str, table))}"


def check_single_map(p, p_cod, q):
    injective = len(set(p)) == len(p)
    estimator = None
    if injective:
        t = [0] * p_cod
        for i, v in enumerate(p):
            t[v] = i
        estimator = map_text(t, len(p))
    fibers: dict[int, set[int]] = {}
    for pv, qv in zip(p, q):
        fibers.setdefault(pv, set()).add(qv)
    identifiable = all(len(v) == 1 for v in fibers.values())
    want = {
        "map": map_text(p, p_cod),
        "injective": injective,
        "estimator_exists": injective,
        "estimator": estimator,
        "parameter_identifiable_standard": identifiable,
        "parameter_identifiable_sections": identifiable,
    }
    return check_payload(want)


def influence_reference(x, w, kind):
    """Expected probe influences and asymptotic variance."""
    probes = np.geomspace(*PROBES)
    if kind == "mean":
        mean = float(w @ x)
        return probes - mean, float(w @ (x - mean) ** 2)
    at_probes = np.array([trimmed_influence(x, w, TRIM, y) for y in probes])
    at_atoms = np.array([trimmed_influence(x, w, TRIM, y) for y in x])
    return at_probes, float(w @ at_atoms**2)


def check_influence(x, w, kind):
    # the trimmed-mean reference costs O(m^2); it is computed on first use
    reference = functools.cache(lambda: influence_reference(x, w, kind))
    atol = 1e-8 if kind == "mean" else 1e-6

    def check(stdout: str) -> None:
        ref_probe, variance = reference()
        lines, payload = split_output(stdout)
        cols = csv_columns(lines, ["probe", "influence"])
        expect_close("probe", cols["probe"], np.geomspace(*PROBES), 1e-12)
        expect_close("influence", cols["influence"], ref_probe, atol, atol)
        expect_equal(payload, {"functional": kind})
        gross = payload["gross_error_sensitivity"]
        if kind == "mean":
            expect(gross == "unbounded", f"gross_error_sensitivity {gross!r}")
        else:
            expect_close("gross_error_sensitivity", gross, np.max(np.abs(ref_probe)), 1e-6, 1e-6)
        expect_close("asymptotic_variance", payload["asymptotic_variance"], variance, 1e-6)

    return check


# ---------------------------------------------------------------- workloads


def dense_solve(rng: np.random.Generator, work: Path) -> list[Invocation]:
    n = N_SOLVE
    a = cumulative(n)
    grid = np.arange(1, n + 1) / n
    delta = 1.0 / (2.0 * N_OSC * math.pi)
    noise = rng.normal(0.0, NOISE_SD, n)
    d = grid + delta * np.sin(grid / delta) + noise
    noise_norm = float(np.linalg.norm(noise))
    demo_noise = float(np.linalg.norm(delta * np.sin(grid / delta)))
    write_cumulative(work / "cumulative.csv", n)
    write_vector(work / "rhs.csv", d)
    mats = ["cumulative.csv", "rhs.csv"]
    return [
        Invocation(
            ["solve", *mats, "--method", "none"],
            check_solution(a, d, np.diff(d, prepend=0.0) * n, "none", None, 1e-9),
        ),
        Invocation(
            ["solve", *mats, "--method", "tikhonov", "--lambda", "1e-4"],
            check_solution(a, d, tikhonov_reference(a, d, 1e-4), "tikhonov", 1e-4, 1e-8),
        ),
        Invocation(
            ["solve", *mats, "--method", "tsvd", "--k", "50"],
            check_solution(a, d, tsvd_reference(a, d, 50), "tsvd", 50, 1e-7),
        ),
        Invocation(
            ["solve", *mats, "--noise", fmt(noise_norm)],
            check_discrepancy_solution(a, d, noise_norm, 1e-7),
        ),
        Invocation(["fredholm-demo", "--n", str(n), "--n-osc", str(N_OSC)], check_fredholm(n, N_OSC)),
        Invocation(
            ["fredholm-demo", "--n", str(n), "--n-osc", str(N_OSC), "--lambda", "1e-4"],
            check_fredholm(n, N_OSC, lam=1e-4),
        ),
        Invocation(
            ["fredholm-demo", "--n", str(n), "--n-osc", str(N_OSC), "--noise", fmt(demo_noise)],
            check_fredholm(n, N_OSC, noise=demo_noise),
        ),
    ]


def dense_analyze(rng: np.random.Generator, work: Path) -> list[Invocation]:
    n = N_RANKDEF
    rank = int(rng.integers(900, 990))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.sort(rng.uniform(1.0, 10.0, rank))[::-1]
    sigma[0], sigma[-1] = 10.0, 1.0
    a = (u[:, :rank] * sigma) @ v[:, :rank].T
    q = rng.standard_normal((3, rank)) @ v[:, :rank].T
    write_matrix(work / "rankdef.csv", a)
    write_matrix(work / "param.csv", q)
    write_cumulative(work / "cumulative_big.csv", N_BIG)
    write_cumulative(work / "cumulative_small.csv", N_SMALL)
    # the discarded tail is rounding noise; only its size is known
    rankdef_spectrum = np.concatenate([sigma, np.zeros(n - rank)])
    return [
        Invocation(
            ["analyze", "cumulative_big.csv", "--kappa-threshold", "100"],
            check_analyze(cumulative_spectrum(N_BIG), N_BIG, N_BIG, "ILL_CONDITIONED", 1e-9),
        ),
        Invocation(
            ["analyze", "rankdef.csv", "--param", "param.csv"],
            check_analyze(rankdef_spectrum, rank, n, "NON_IDENTIFIABLE", 1e-9, param=True),
        ),
        Invocation(
            ["analyze", "cumulative_small.csv"],
            check_analyze(cumulative_spectrum(N_SMALL), N_SMALL, N_SMALL, "WELL_POSED", 1e-9),
        ),
    ]


def random_maps(rng: np.random.Generator):
    """Three (P, codomain, q) triples: P injective, q a function of P, q arbitrary."""
    d = int(rng.integers(5, 8))
    cod = d + int(rng.integers(0, 3))
    injective = [int(v) for v in rng.permutation(cod)[:d]]
    yield injective, cod, [int(v) for v in rng.integers(0, 3, d)]
    p = [int(v) for v in rng.integers(0, d - 1, d)]
    relabel = [int(v) for v in rng.integers(0, 3, d - 1)]
    yield p, d - 1, [relabel[v] for v in p]
    yield [int(v) for v in rng.integers(0, 3, d)], 3, [int(v) for v in rng.integers(0, 4, d)]


def finite_influence(rng: np.random.Generator, work: Path) -> list[Invocation]:
    invs = [
        Invocation(["finite-check", "--max-domain", "4", "--max-codomain", "4"], check_sweep(4, 4)),
        Invocation(["finite-check", "--max-domain", "5", "--max-codomain", "3"], check_sweep(5, 3)),
    ]
    for p, cod, q in random_maps(rng):
        invs.append(
            Invocation(
                ["finite-check", "--map", map_text(p, cod), "--param", map_text(q, max(q) + 1)],
                check_single_map(p, cod, q),
            )
        )
    samples = {}
    for m in (M_SMALL, M_LARGE):
        x = rng.standard_normal(m)
        weight = fmt(1.0 / m)
        (work / f"normal_{m}.csv").write_text("".join(f"{fmt(v)},{weight}\n" for v in x))
        samples[m] = (x, np.full(m, 1.0 / m))
    trimmed = f"trimmed:{TRIM}"
    for m, kind in ((M_SMALL, "mean"), (M_SMALL, trimmed), (M_LARGE, trimmed)):
        invs.append(
            Invocation(
                ["influence", f"normal_{m}.csv", "--functional", kind, "--probes", PROBES_ARG],
                check_influence(*samples[m], kind),
                # the epsilon-ladder quotient may fail to converge on this input:
                # the contract is exit 3 with "converge" on stderr
                tolerated={3: "converge"} if m == M_LARGE else {},
                probe=m == M_LARGE,
            )
        )
    return invs


WORKLOADS = {
    "dense-solve": dense_solve,
    "dense-analyze": dense_analyze,
    "finite-influence": finite_influence,
}


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    """Write the workload's inputs under ``work`` and return its invocation list."""
    return WORKLOADS[name](np.random.default_rng(seed), work)
