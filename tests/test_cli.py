import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "illposed.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ones_row.csv").write_text("1,1\n")
    (tmp_path / "param_x.csv").write_text("1,0\n")
    (tmp_path / "param_sum.csv").write_text("1,1\n")
    (tmp_path / "identity.csv").write_text("1,0\n0,1\n")
    (tmp_path / "data2.csv").write_text("1\n1\n")
    (tmp_path / "dist.csv").write_text(
        "".join(f"{k},{1 / 9!r}\n" for k in range(1, 10))
    )
    (tmp_path / "bad.csv").write_text("1,2\n3,oops\n")
    return tmp_path


class TestAnalyze:
    def test_example_one_pair(self, workdir):
        res = run_cli(
            "analyze", str(workdir / "ones_row.csv"), "--param", str(workdir / "param_x.csv")
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["identifiable"] is False
        assert report["parameter_identifiable"] is False
        assert report["classification"] == "NON_IDENTIFIABLE"

    def test_sum_parameter_identifiable(self, workdir):
        res = run_cli(
            "analyze", str(workdir / "ones_row.csv"), "--param", str(workdir / "param_sum.csv")
        )
        assert json.loads(res.stdout)["parameter_identifiable"] is True

    def test_identity_well_posed(self, workdir):
        res = run_cli("analyze", str(workdir / "identity.csv"))
        report = json.loads(res.stdout)
        assert report["classification"] == "WELL_POSED"
        assert report["condition_number"] == 1.0

    def test_heaviside_ill_conditioned_under_low_threshold(self, workdir, tmp_path):
        n = 256
        rows = "\n".join(
            ",".join(repr(1.0 / n) if j <= i else "0" for j in range(n)) for i in range(n)
        )
        path = tmp_path / "heaviside.csv"
        path.write_text(rows + "\n")
        res = run_cli("analyze", str(path), "--kappa-threshold", "100")
        report = json.loads(res.stdout)
        assert report["classification"] == "ILL_CONDITIONED"
        assert report["condition_number"] > 100

    def test_malformed_csv_exit_2(self, workdir):
        res = run_cli("analyze", str(workdir / "bad.csv"))
        assert res.returncode == 2
        assert "bad.csv:2" in res.stderr

    def test_missing_file_exit_2(self, workdir):
        res = run_cli("analyze", str(workdir / "nope.csv"))
        assert res.returncode == 2

    def test_unknown_flag_rejected(self, workdir):
        res = run_cli("analyze", str(workdir / "identity.csv"), "--frobnicate")
        assert res.returncode == 2

    def test_deterministic_output(self, workdir):
        a = run_cli("analyze", str(workdir / "identity.csv"))
        b = run_cli("analyze", str(workdir / "identity.csv"))
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("text", ["", " \n\n"], ids=["empty", "blank"])
    def test_file_without_data_exit_2(self, tmp_path, text):
        path = tmp_path / "nodata.csv"
        path.write_text(text)
        res = run_cli("analyze", str(path))
        assert res.returncode == 2
        assert res.stderr == f"error: {path}: no data rows\n"

    @pytest.mark.parametrize(
        "param, flags, message",
        [
            ("param_x.csv", ["--kappa-threshold", "1"], "kappa_threshold must exceed 1"),
            ("param_x.csv", ["--rtol", "-1"], "rtol must be >= 0"),
            ("bad.csv", [], "bad.csv:2"),
            ("data2.csv", [], "same parameter space"),
        ],
    )
    def test_bad_argument_with_param_exit_2(self, workdir, param, flags, message):
        res = run_cli(
            "analyze", str(workdir / "identity.csv"), "--param", str(workdir / param), *flags
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert message in res.stderr


class TestSolve:
    def test_plain_solve(self, workdir):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv")
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "1" and lines[1] == "1"
        report = json.loads("\n".join(lines[2:]))
        assert report["method"] == "none"
        assert report["parameter"] is None
        assert report["residual"] == 0.0

    def test_tikhonov_solve_with_out_file(self, workdir, tmp_path):
        out = tmp_path / "solution.csv"
        res = run_cli(
            "solve",
            str(workdir / "identity.csv"),
            str(workdir / "data2.csv"),
            "--method",
            "tikhonov",
            "--lambda",
            "1.0",
            "--out",
            str(out),
        )
        assert res.returncode == 0
        assert out.read_text().splitlines() == ["0.5", "0.5"]
        report = json.loads(res.stdout)
        assert report["method"] == "tikhonov"
        assert report["parameter"] == 1.0

    def test_tsvd_requires_k(self, workdir):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            "--method", "tsvd",
        )
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "flags", [["--method", "tikhonov", "--lambda", "-1"], ["--method", "tsvd", "--k", "0"]]
    )
    def test_bad_regularization_parameter_exit_2(self, workdir, flags):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"), *flags
        )
        assert res.returncode == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("data, message", [("1\n2\n3\n", "shape (2,)"), ("1\nnan\n", "finite")])
    def test_bad_data_without_method_exit_2(self, workdir, data, message):
        (workdir / "bad_data.csv").write_text(data)
        res = run_cli("solve", str(workdir / "identity.csv"), str(workdir / "bad_data.csv"))
        assert res.returncode == 2
        assert res.stdout == ""
        assert message in res.stderr

    def test_noise_with_lambda_conflict(self, workdir):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            "--noise", "0.1", "--lambda", "0.1",
        )
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "tikhonov", "--lambda", "1e-4", "--k", "1"], "--k is read only"),
            (["--method", "tsvd", "--k", "1", "--lambda", "1e-4"], "--lambda is read only"),
            (["--noise", "0.1", "--k", "1"], "--k is read only"),
            (["--method", "none", "--k", "1"], "--k is read only"),
            (["--tau", "2"], "--tau is read only with --noise"),
            (["--method", "tikhonov", "--lambda", "1", "--tau", "2"], "--tau is read only"),
        ],
    )
    def test_option_the_method_never_reads_exit_2(self, workdir, flags, message):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"), *flags
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert message in res.stderr

    def test_tau_with_noise(self, workdir):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            "--noise", "0.1", "--tau", "1.5",
        )
        assert res.returncode == 0
        report = json.loads("\n".join(res.stdout.splitlines()[2:]))
        assert report["method"] == "tikhonov"
        # the discrepancy principle hits tau * noise within its 1% tolerance
        assert report["residual"] == pytest.approx(0.15, rel=0.01)

    def test_unattainable_noise_exit_2(self, workdir):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            "--noise", "100.0",
        )
        assert res.returncode == 2
        assert "attainable" in res.stderr


class TestFredholmDemo:
    def test_summary_amplification(self, tmp_path):
        out = tmp_path / "demo.csv"
        res = run_cli(
            "fredholm-demo", "--n", "1000", "--n-osc", "8", "--out", str(out)
        )
        assert res.returncode == 0
        summary = json.loads(res.stdout)
        assert summary["amplification"] == pytest.approx(16 * math.pi, rel=0.1)
        header = out.read_text().splitlines()[0]
        assert header == "y,F_unperturbed,F_perturbed,f_recovered,f_analytic"
        rows = out.read_text().splitlines()
        assert len(rows) == 1001

    def test_regularized_column(self, tmp_path):
        out = tmp_path / "demo.csv"
        res = run_cli(
            "fredholm-demo", "--n", "1000", "--n-osc", "8",
            "--lambda", "1e-4", "--out", str(out),
        )
        summary = json.loads(res.stdout)
        assert summary["lambda"] == 1e-4
        assert summary["regularized_sup_deviation"] < summary["sol_dev"]
        assert out.read_text().splitlines()[0].endswith(",f_regularized")

    def test_resolution_guard_exit_2(self):
        res = run_cli("fredholm-demo", "--n", "100", "--n-osc", "8")
        assert res.returncode == 2
        assert "delta/10" in res.stderr

    def test_nonpositive_grid_exit_2(self):
        res = run_cli("fredholm-demo", "--n", "0", "--n-osc", "1")
        assert res.returncode == 2
        assert "grid size" in res.stderr

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1e-4"]])
    def test_tau_without_noise_exit_2(self, flags):
        res = run_cli("fredholm-demo", "--n", "200", "--n-osc", "1", "--tau", "2", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--tau is read only with --noise" in res.stderr


class TestInfluence:
    def test_mean_unbounded(self, workdir):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "mean", "--probes", "10:1e6:6",
        )
        assert res.returncode == 0
        csv_part, json_part = res.stdout.split("{", 1)
        summary = json.loads("{" + json_part)
        assert summary["gross_error_sensitivity"] == "unbounded"
        assert csv_part.splitlines()[0] == "probe,influence"

    def test_median_bounded(self, workdir):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "median", "--probes", "10:1e6:6",
        )
        summary = json.loads("{" + res.stdout.split("{", 1)[1])
        assert summary["gross_error_sensitivity"] != "unbounded"

    def test_trimmed_functional_parse(self, workdir):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "trimmed:0.25", "--probes", "10:1e4:4",
        )
        assert res.returncode == 0

    def test_bad_probes_exit_2(self, workdir):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "mean", "--probes", "10:1e6",
        )
        assert res.returncode == 2

    @pytest.mark.parametrize("probes", ["1:inf:3", "nan:2:3", "-inf:2:3"])
    def test_non_finite_probes_exit_2(self, workdir, probes):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "mean", "--probes", probes,
        )
        assert res.returncode == 2
        assert "--probes" in res.stderr
        assert "RuntimeWarning" not in res.stderr

    def test_divergent_quotient_exit_3(self, tmp_path):
        # the median of two half atoms jumps under any contamination beyond
        # the upper atom, so the influence quotient diverges
        path = tmp_path / "knife.csv"
        path.write_text("0.0,0.5\n10.0,0.5\n")
        res = run_cli(
            "influence", str(path), "--functional", "median", "--probes", "100:1e4:3",
        )
        assert res.returncode == 3
        assert "converge" in res.stderr


class TestFiniteCheck:
    def test_default_sweep(self):
        res = run_cli("finite-check", "--max-domain", "3", "--max-codomain", "3")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["theorem1_counterexamples"] == 0
        assert report["theorem2_disagreements"] == 0
        assert report["theorem1_maps_checked"] == 3 + 9 + 27 + 2 + 4 + 8 + 1 + 1 + 1

    def test_trivial_domain(self):
        res = run_cli("finite-check", "--max-domain", "1", "--max-codomain", "1")
        report = json.loads(res.stdout)
        assert report["theorem1_counterexamples"] == 0
        assert report["theorem1_maps_checked"] == 1

    def test_guard_exit_2(self):
        res = run_cli("finite-check", "--max-domain", "6")
        assert res.returncode == 2

    def test_closed_form_counts_5_5(self):
        res = run_cli("finite-check", "--max-domain", "5", "--max-codomain", "5")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        # sum over d, c <= 5 of c**d tables, and the sum over d of its square
        assert report["theorem1_maps_checked"] == 5699
        assert report["theorem1_counterexamples"] == 0
        assert report["theorem2_pairs_checked"] == 20592941
        assert report["theorem2_disagreements"] == 0

    def test_param_without_map_exit_2(self):
        res = run_cli("finite-check", "--param", "4 2 : 0,0,1,1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--param needs --map" in res.stderr

    def test_single_map_mode(self):
        res = run_cli("finite-check", "--map", "4 3 : 0,1,1,2", "--param", "4 2 : 0,0,1,1")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["injective"] is False
        assert report["estimator_exists"] is False
        assert report["parameter_identifiable_standard"] is False
        assert report["parameter_identifiable_sections"] is False

    @pytest.mark.parametrize("flag", ["--max-domain", "--max-codomain"])
    def test_sweep_bound_with_map_exit_2(self, flag):
        res = run_cli("finite-check", "--map", "3 3 : 0,1,2", flag, "4")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "not valid with --map" in res.stderr

    def test_one_bound_keeps_the_other_default(self):
        res = run_cli("finite-check", "--max-domain", "2")
        report = json.loads(res.stdout)
        assert (report["max_domain"], report["max_codomain"]) == (2, 4)
        assert report["theorem1_maps_checked"] == sum(c**d for d in (1, 2) for c in range(1, 5))

    def test_single_injective_map(self):
        res = run_cli("finite-check", "--map", "2 3 : 0,1")
        report = json.loads(res.stdout)
        assert report["injective"] is True
        assert report["estimator"] == "3 2 : 0,1,0"


def numpy_free_run(*args):
    """Run the CLI in a fresh interpreter and fail it if numpy was imported."""
    code = (
        "import sys\n"
        "from illposed.cli import run\n"
        "status = run(sys.argv[1:])\n"
        "if 'numpy' in sys.modules:\n"
        "    sys.exit('numpy was imported')\n"
        "sys.exit(status)\n"
    )
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-B", "-c", code, *args], capture_output=True, text=True, env=env
    )


class TestNumpyFree:
    def test_import_cli(self):
        code = "import sys, illposed.cli; sys.exit('numpy' in sys.modules)"
        res = subprocess.run(
            [sys.executable, "-B", "-c", code], env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
        )
        assert res.returncode == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["finite-check"],
            ["finite-check", "--max-domain", "3", "--max-codomain", "2"],
            ["finite-check", "--map", "4 3 : 0,1,1,2"],
            ["finite-check", "--map", "4 3 : 0,1,1,2", "--param", "4 2 : 0,0,1,1"],
        ],
    )
    def test_finite_check(self, args):
        res = numpy_free_run(*args)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)

    def test_finite_check_error_path(self):
        res = numpy_free_run("finite-check", "--max-domain", "6")
        assert res.returncode == 2
        assert "[1, 5]" in res.stderr
