"""Smoke tests: each script in scripts/ runs at a small size and prints its table
header, and where a script prints a column beside its independent check, they agree."""

import pathlib
import subprocess

import pytest

from launcher import ENV, PYTHON

ROOT = pathlib.Path(__file__).resolve().parents[1]

# two columns a script computes independently, and how closely their printed values agree
CROSS_CHECKS = {
    # the closed-form condition number against LAPACK's, both printed to 4 decimals
    "conditioning_growth.py": ("kappa", "LAPACK", {"abs": 2e-4}),
    # acceptance criterion 4: the amplification is about 1/delta = 2 n_osc pi
    "instability_sweep.py": ("amplification", "2*n_osc*pi", {"rel": 0.1}),
}


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("conditioning_growth.py", ["--sizes", "16", "32"],
         ["n", "kappa", "LAPACK", "4n/pi", "decay", "slope", "classification"]),
        ("instability_sweep.py", ["--n-osc", "4", "8"],
         ["n_osc", "n", "delta", "rhs_dev", "sol_dev", "amplification", "2*n_osc*pi"]),
        ("regularization_tradeoff.py", ["--n", "200", "--n-osc", "2", "--points", "5"],
         ["lambda", "residual", "||f||", "sup|f-1|", "interior", "sup"]),
    ],
)
def test_script_runs(script, args, header):
    res = subprocess.run(
        [*PYTHON, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert header in lines
    if script in CROSS_CHECKS:
        got, want, tolerance = CROSS_CHECKS[script]
        rows = lines[lines.index(header) + 1:]  # the table runs to the end of the output
        assert len(rows) == 2  # one row per value in args
        for row in rows:
            expected = float(row[header.index(want)])
            assert float(row[header.index(got)]) == pytest.approx(expected, **tolerance)
