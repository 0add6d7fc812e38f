"""Smoke tests: each script in scripts/ runs at a small size and prints its table header."""

import pathlib
import subprocess

import pytest

from launcher import ENV, PYTHON

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    assert header in [line.split() for line in res.stdout.splitlines()]
