import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from illposed.cli import _parse_probes, run
from launcher import ENV, PYTHON
from test_linop import count_lapack_svd


def run_cli(*args, cwd=None):
    return subprocess.run(
        [*PYTHON, "-m", "illposed", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=ENV,
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """``json.loads`` that rejects the non-JSON constants Infinity, -Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def run_in_process(args, capsys):
    """``run(args)``, with the JSON document of a successful run parsed strictly."""
    capsys.readouterr()
    code = run(args)
    out = capsys.readouterr().out
    if code == 0:
        strict_json(out[out.index("{"):])
    return code


def assert_one_error_line(res, code):
    assert res.returncode == code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "Warning" not in res.stderr


def write_diagonal(path, d1, d2):
    path.write_text(f"{d1},0\n0,{d2}\n")
    return str(path)


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
        report = strict_json(res.stdout)
        assert report["identifiable"] is False
        assert report["parameter_identifiable"] is False
        assert report["classification"] == "NON_IDENTIFIABLE"

    def test_sum_parameter_identifiable(self, workdir):
        res = run_cli(
            "analyze", str(workdir / "ones_row.csv"), "--param", str(workdir / "param_sum.csv")
        )
        assert strict_json(res.stdout)["parameter_identifiable"] is True

    def test_identity_well_posed(self, workdir):
        res = run_cli("analyze", str(workdir / "identity.csv"))
        report = strict_json(res.stdout)
        assert report["classification"] == "WELL_POSED"
        assert report["condition_number"] == 1.0

    def test_report_keys_and_classification_line(self, workdir, capsys):
        # the report's fields in slot order, and the verdict as its plain
        # string: an enum would print its repr or its name here
        capsys.readouterr()
        assert run(["analyze", str(workdir / "identity.csv")]) == 0
        out = capsys.readouterr().out
        assert list(strict_json(out)) == [
            "identifiable",
            "numerical_rank",
            "sigma_max",
            "sigma_min",
            "condition_number",
            "stability_constant",
            "classification",
            "spectrum",
            "decay_exponent",
        ]
        assert '  "classification": "WELL_POSED",' in out.splitlines()

    @pytest.mark.parametrize("rows", ["0\n", "0,0\n0,0\n", "0,0,0\n0,0,0\n"])
    def test_zero_operator_condition_number_is_unbounded(self, tmp_path, rows):
        path = tmp_path / "zero.csv"
        path.write_text(rows)
        res = run_cli("analyze", str(path))
        assert res.returncode == 0, res.stderr
        assert '"condition_number": "unbounded"' in res.stdout
        report = strict_json(res.stdout)
        assert report["numerical_rank"] == 0
        assert report["classification"] == "NON_IDENTIFIABLE"

    def test_heaviside_ill_conditioned_under_low_threshold(self, workdir, tmp_path):
        n = 256
        rows = "\n".join(
            ",".join(repr(1.0 / n) if j <= i else "0" for j in range(n)) for i in range(n)
        )
        path = tmp_path / "heaviside.csv"
        path.write_text(rows + "\n")
        res = run_cli("analyze", str(path), "--kappa-threshold", "100")
        report = strict_json(res.stdout)
        assert report["classification"] == "ILL_CONDITIONED"
        assert report["condition_number"] > 100

    def test_malformed_csv_exit_2(self, workdir):
        res = run_cli("analyze", str(workdir / "bad.csv"))
        assert res.returncode == 2
        assert "bad.csv:2" in res.stderr

    @pytest.mark.parametrize(
        "args, text",
        [
            (["analyze"], b"1,2\n3,\xff4\n"),
            (["solve", "identity.csv"], b"1\n\xff1\n"),
            (["influence", "--probes", "1:2:3"], b"1,0.5\n2,0.5\xff\n"),
        ],
        ids=["matrix", "vector", "distribution"],
    )
    def test_non_utf8_file_exit_2(self, workdir, args, text):
        (workdir / "latin.csv").write_bytes(text)
        res = run_cli(*args, "latin.csv", cwd=workdir)
        assert_one_error_line(res, 2)
        assert "latin.csv:2: could not convert string to float" in res.stderr

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rtol", "-1"], "rtol must be >= 0"),
            (["--param", "param_x.csv", "--rtol", "-1"], "rtol must be >= 0"),
            (["--param", "param_x.csv", "--kappa-threshold", "1"], "kappa_threshold must exceed 1"),
        ],
        ids=["alone", "param", "kappa-param"],
    )
    def test_option_error_exits_before_any_lapack_call(
        self, workdir, monkeypatch, capsys, flags, message
    ):
        monkeypatch.chdir(workdir)
        calls = count_lapack_svd(monkeypatch)
        assert run(["analyze", "identity.csv", *flags]) == 2
        assert calls == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, param",
        [
            # 2.54e308 times an orthogonal matrix: kappa = 1, but sigma_1 = inf
            # left no singular value above rtol * sigma_1 (rank 0, exit 0)
            ("1.797e308,1.797e308\n1.797e308,-1.797e308\n", None),
            # the parameter map's norm overflowed, so every |q N| passed as 0
            ("1,0\n", "1.797e308,1.797e308\n"),
        ],
        ids=["operator", "param"],
    )
    def test_largest_singular_value_past_the_range_exit_3(self, tmp_path, rows, param):
        (tmp_path / "a.csv").write_text(rows)
        flags = []
        if param is not None:
            (tmp_path / "q.csv").write_text(param)
            flags = ["--param", "q.csv"]
        res = run_cli("analyze", "a.csv", *flags, cwd=tmp_path)
        assert_one_error_line(res, 3)
        assert "the largest singular value overflows the float range" in res.stderr

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--kappa-threshold", "nan", "kappa_threshold must exceed 1 and be finite"),
            ("--kappa-threshold", "inf", "kappa_threshold must exceed 1 and be finite"),
            ("--rtol", "nan", "rtol must be >= 0 and finite"),
            ("--rtol", "inf", "rtol must be >= 0 and finite"),
        ],
    )
    def test_non_finite_option_exit_2(self, workdir, flag, value, message):
        res = run_cli("analyze", str(workdir / "identity.csv"), flag, value)
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
        report = strict_json("\n".join(lines[2:]))
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
        report = strict_json(res.stdout)
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
        ],
    )
    def test_option_the_method_never_reads_exit_2(self, workdir, flags, message):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"), *flags
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert message in res.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "tikhonov", "--lambda", "nan"], "lambda must be >= 0 and finite"),
            (["--method", "tikhonov", "--lambda", "inf"], "lambda must be >= 0 and finite"),
            (["--noise", "nan"], "noise_level must be > 0 and finite"),
            (["--noise", "inf"], "noise_level must be > 0 and finite"),
        ],
    )
    def test_non_finite_option_exit_2(self, workdir, flags, message):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"), *flags
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert message in res.stderr

    def test_tau_with_noise(self, workdir):
        # a discrepancy safety factor is the caller's product: 1.5 * 0.1
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            "--noise", "0.15000000000000002",
        )
        assert res.returncode == 0
        report = strict_json("\n".join(res.stdout.splitlines()[2:]))
        assert report["method"] == "tikhonov"
        assert report["residual"] == pytest.approx(0.15, rel=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--noise", "0.1"]])
    def test_tau_is_unrecognized_exit_2(self, workdir, flags):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            *flags, "--tau", "1.5",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unrecognized arguments: --tau 1.5" in res.stderr

    def test_unattainable_noise_exit_2(self, workdir):
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "data2.csv"),
            "--noise", "100.0",
        )
        assert res.returncode == 2
        assert "attainable" in res.stderr

    def test_noise_whose_scaled_target_overflows_exit_2(self, workdir):
        # the residual is measured on d scaled by 2^1062, where the target 1 overflows
        (workdir / "tiny.csv").write_text("1e-320\n1e-320\n")
        res = run_cli(
            "solve", str(workdir / "identity.csv"), str(workdir / "tiny.csv"), "--noise", "1"
        )
        assert_one_error_line(res, 2)
        assert "target residual 1 outside attainable range [0, 7.07008e-321]" in res.stderr

    @pytest.mark.parametrize(
        "diagonal, flags, message",
        [
            # 1 / sigma overflows: the unfiltered solve would print NaN
            (("1e-320", "1e-320"), ["--method", "none"], "solution overflows"),
            # the kept triplet alone would print Infinity, NaN
            (("1e-320", "1e-320"), ["--method", "tsvd", "--k", "1"], "solution overflows"),
            # at lambda = 0 the Tikhonov filter is 1 / sigma, which overflows too
            (
                ("1e-320", "1e-320"),
                ["--method", "tikhonov", "--lambda", "0"],
                "solution overflows",
            ),
            # the discrepancy root lambda is not a normal float: 9.99e-313 is
            # subnormal, and the other two roots round to 0 and to inf
            (("1e-155", "1e-156"), ["--noise", "0.5"], "is not a normal float"),
            (("1e-170", "1e-171"), ["--noise", "0.5"], "is not a normal float"),
            (("1e200", "1e199"), ["--noise", "0.5"], "is not a normal float"),
        ],
    )
    def test_outside_float_range_exit_3(self, workdir, diagonal, flags, message):
        matrix = write_diagonal(workdir / "diag.csv", *diagonal)
        res = run_cli("solve", matrix, str(workdir / "data2.csv"), *flags)
        assert_one_error_line(res, 3)
        assert message in res.stderr

    @pytest.mark.parametrize(
        "data, stdout",
        [
            # sigma_max^2 + lambda overflows on the unscaled spectrum, which
            # made the attainable range read [1.3e+140, 0]
            (
                ("1.3e154", "0"),
                "0.92307692307692313\n0\n{\n"
                '  "method": "tikhonov",\n'
                '  "parameter": 1.4083333333333333e+307,\n'
                '  "residual": 9.999999999999987e+152,\n'
                '  "solution_norm": 0.92307692307692313\n}\n',
            ),
            # the same overflow, where it used to leave the root unchanged
            (
                ("1.3e154", "2e153"),
                "0.99415140432186655\n1.0028946023953442\n{\n"
                '  "method": "tikhonov",\n'
                '  "parameter": 9.9422750428922296e+305,\n'
                '  "residual": 1e+153,\n'
                '  "solution_norm": 1.4121383070467477\n}\n',
            ),
        ],
        ids=["root-overflowed", "root-kept"],
    )
    def test_discrepancy_near_the_top_of_the_sigma_range(self, workdir, data, stdout):
        matrix = write_diagonal(workdir / "diag.csv", "1.3e154", "1e153")
        (workdir / "data.csv").write_text("\n".join(data) + "\n")
        res = run_cli("solve", matrix, str(workdir / "data.csv"), "--noise", "1e153")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert res.stdout == stdout

    @pytest.mark.parametrize(
        "diagonal, noise, lam",
        [
            (("1e155", "1e154"), 5e153, 9.6387052690057227e307),
            (("1e-150", "1e-151"), 5e-151, 9.6119578051205924e-301),
        ],
    )
    def test_discrepancy_roots_of_any_normal_size(self, workdir, diagonal, noise, lam):
        # sigma_max^2 leaves the float range, but the root lambda does not
        matrix = write_diagonal(workdir / "diag.csv", *diagonal)
        (workdir / "data.csv").write_text("\n".join(diagonal) + "\n")
        res = run_cli("solve", matrix, str(workdir / "data.csv"), "--noise", repr(noise))
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = strict_json("{" + res.stdout.split("{", 1)[1])
        assert report["parameter"] == lam
        assert report["residual"] == pytest.approx(noise, rel=1e-12, abs=0)

    def test_tikhonov_filter_squares_nothing(self, workdir):
        # sigma^2 overflows, so a filter sigma / (sigma^2 + lambda) would read 0, 0
        matrix = write_diagonal(workdir / "diag.csv", "1e200", "1e199")
        res = run_cli(
            "solve", matrix, str(workdir / "data2.csv"), "--method", "tikhonov", "--lambda", "1"
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        x = [float(v) for v in res.stdout.splitlines()[:2]]
        assert x == pytest.approx([1e-200, 1e-199], rel=1e-15, abs=0)

    def test_largest_singular_value_past_the_range_exit_3(self, tmp_path):
        # sigma_1 = inf kept no singular value, so x = (0, 0) where it is (0, 1)
        (tmp_path / "a.csv").write_text("0,1.797e308\n1e308,1.797e308\n")
        (tmp_path / "d.csv").write_text("1.797e308\n1.797e308\n")
        res = run_cli("solve", "a.csv", "d.csv", cwd=tmp_path)
        assert_one_error_line(res, 3)
        assert "the largest singular value overflows the float range" in res.stderr

    @pytest.mark.parametrize(
        "flags",
        [["--method", "tikhonov", "--lambda", "1e300"], []],
        ids=["residual", "solution-norm"],
    )
    def test_norm_past_the_range_exit_3(self, workdir, flags):
        # each printed as "unbounded" with exit 0
        (workdir / "d.csv").write_text("1.797e308\n1.797e308\n")
        res = run_cli("solve", "identity.csv", "d.csv", *flags, cwd=workdir)
        assert_one_error_line(res, 3)
        assert "the residual or the solution norm overflows the float range" in res.stderr

    def test_discrepancy_on_data_whose_projection_overflows(self, workdir):
        # U^T d = 1.5e308 * sqrt(3) leaves the float range; the residual is
        # linear in d, so it is measured on d scaled by a power of two
        (workdir / "col.csv").write_text("1\n1\n-1\n")
        (workdir / "data.csv").write_text("1.5e308\n1.5e308\n-1.5e308\n")
        res = run_cli(
            "solve", str(workdir / "col.csv"), str(workdir / "data.csv"), "--noise", "1e308"
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = strict_json("\n".join(res.stdout.splitlines()[1:]))
        assert report["residual"] == pytest.approx(1e308, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "diagonal, data, noise",
        [
            # ||d||^2 overflows
            (("1", "0.1"), ["1e160", "1e160"], 1e159),
            # ||d||^2 underflows to 0, so the attainable range would read [0, 0]
            (("1", ".5", ".25", ".125"), ["1e-165", "-1e-165", "5e-166", "2e-165"], None),
        ],
    )
    def test_discrepancy_on_data_whose_square_leaves_the_range(
        self, workdir, diagonal, data, noise
    ):
        n = len(diagonal)
        rows = [",".join(diagonal[i] if j == i else "0" for j in range(n)) for i in range(n)]
        (workdir / "diag.csv").write_text("\n".join(rows) + "\n")
        (workdir / "data.csv").write_text("\n".join(data) + "\n")
        if noise is None:
            noise = 0.5 * math.hypot(*map(float, data))
        res = run_cli(
            "solve", str(workdir / "diag.csv"), str(workdir / "data.csv"), "--noise", repr(noise)
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = strict_json("\n".join(res.stdout.splitlines()[n:]))
        assert report["residual"] == pytest.approx(noise, rel=0.01, abs=0)

    @pytest.mark.parametrize(
        "flags", [["--method", "none"], ["--method", "tikhonov", "--lambda", "1"]]
    )
    def test_rank_zero_operator_solves_to_zero(self, workdir, flags):
        matrix = write_diagonal(workdir / "zero.csv", "0", "0")
        res = run_cli("solve", matrix, str(workdir / "data2.csv"), *flags)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        method, parameter = ("none", "null") if flags[1] == "none" else ("tikhonov", "1")
        assert res.stdout == (
            "0\n0\n{\n"
            f'  "method": "{method}",\n'
            f'  "parameter": {parameter},\n'
            '  "residual": 1.4142135623730951,\n'
            '  "solution_norm": 0\n}\n'
        )

    @pytest.mark.parametrize(
        "diagonal, data, x",
        [
            # squaring the entries underflows: np.linalg.norm reads 0
            (("1e200", "1e199"), "1\n1\n", (1e-200, 1e-199)),
            # squaring the entries overflows: np.linalg.norm reads Infinity
            (("1e-100", "1e-100"), "1e100\n1e100\n", (1e200, 1e200)),
        ],
    )
    def test_solution_norm_outside_the_squares_range(self, workdir, diagonal, data, x):
        matrix = write_diagonal(workdir / "diag.csv", *diagonal)
        (workdir / "data.csv").write_text(data)
        res = run_cli("solve", matrix, str(workdir / "data.csv"), "--method", "none")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = strict_json("\n".join(res.stdout.splitlines()[2:]))
        assert report["solution_norm"] == pytest.approx(math.hypot(*x), rel=1e-15, abs=0)
        assert report["residual"] == 0


class TestLargeMatrix:
    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="needs CPU affinity and 2 usable CPUs",
    )
    def test_split_parse_keeps_stdout(self, tmp_path):
        # above two range floors the matrix is parsed on every usable CPU;
        # pinned to one CPU the same file is parsed whole, in one process
        from illposed.fileio import _RANGE_FLOOR, matrix_to_csv, vector_to_csv

        rng = np.random.default_rng(5)
        matrix, data = tmp_path / "m.csv", tmp_path / "d.csv"
        matrix.write_text(matrix_to_csv(rng.standard_normal((660, 660))))
        data.write_text(vector_to_csv(rng.standard_normal(660)))
        assert matrix.stat().st_size >= 2 * _RANGE_FLOOR

        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        # one BLAS thread in both runs, so that only the parse differs
        env = {**ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        solve = ["solve", str(matrix), str(data), "--method", "tsvd", "--k", "600"]
        for args in (["analyze", str(matrix)], solve):
            split, whole = (
                subprocess.run(
                    [*PYTHON, "-m", "illposed", *args],
                    capture_output=True, env=env, preexec_fn=pin,
                )
                for pin in (None, one_cpu)
            )
            assert split.returncode == whole.returncode == 0, split.stderr + whole.stderr
            assert split.stdout == whole.stdout
            assert split.stderr == whole.stderr == b""


class TestFredholmDemo:
    def test_summary_amplification(self, tmp_path):
        out = tmp_path / "demo.csv"
        res = run_cli(
            "fredholm-demo", "--n", "1000", "--n-osc", "8", "--out", str(out)
        )
        assert res.returncode == 0
        summary = strict_json(res.stdout)
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
        summary = strict_json(res.stdout)
        assert summary["lambda"] == 1e-4
        assert summary["regularized_sup_deviation"] < summary["sol_dev"]
        assert out.read_text().splitlines()[0].endswith(",f_regularized")

    def test_resolution_guard_exit_2(self):
        res = run_cli("fredholm-demo", "--n", "100", "--n-osc", "8")
        assert res.returncode == 2
        assert "delta/10" in res.stderr

    # n_osc = 8 needs h <= delta/10 = 1/(160 pi), i.e. n >= 503; 300 lies
    # between delta/10 and delta/5
    @pytest.mark.parametrize("n, code", [(300, 2), (502, 2), (503, 0)])
    def test_resolution_guard_is_a_tenth_of_delta(self, capsys, n, code):
        assert run_in_process(["fredholm-demo", "--n", str(n), "--n-osc", "8"], capsys) == code

    @pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--noise", "inf"]])
    def test_non_finite_option_exit_2(self, flags):
        res = run_cli("fredholm-demo", "--n", "200", "--n-osc", "1", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "finite" in res.stderr

    def test_nonpositive_grid_exit_2(self):
        res = run_cli("fredholm-demo", "--n", "0", "--n-osc", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: grid size must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "n, n_osc, message",
        [
            (-3, 1, "grid size must be >= 1, got -3"),
            (0, 0, "n_osc must be a positive integer, got 0"),  # n_osc is checked first
        ],
    )
    def test_invalid_grid_exit_2(self, n, n_osc, message):
        res = run_cli("fredholm-demo", "--n", str(n), "--n-osc", str(n_osc))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    def test_columns_are_the_library_vectors(self, capsys):
        # bit for bit, through the 17-digit CSV; y and F(y) = y are one array
        from illposed import fredholm

        capsys.readouterr()
        assert run(["fredholm-demo", "--n", "64", "--n-osc", "1"]) == 0
        out = capsys.readouterr().out
        header, *rows = out[:out.index("{")].splitlines()
        assert header == "y,F_unperturbed,F_perturbed,f_recovered,f_analytic"
        fields = [row.split(",") for row in rows]
        assert all(f[0] == f[1] for f in fields)
        y = fredholm.ramp_rhs(64)
        expected = [
            y,
            y,
            fredholm.ramp_rhs(64, 1),
            fredholm.solve_unregularized(fredholm.ramp_problem(64, 1)),
            fredholm.analytic_perturbed_solution(64, 1),
        ]
        columns = np.array(fields, dtype=float).T
        for got, want in zip(columns, expected, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("flags", [[], ["--noise", "0.1"]])
    def test_tau_is_unrecognized_exit_2(self, flags):
        res = run_cli("fredholm-demo", "--n", "200", "--n-osc", "1", "--tau", "2", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unrecognized arguments: --tau 2" in res.stderr


class TestInfluence:
    def test_mean_unbounded(self, workdir):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "mean", "--probes", "10:1e6:6",
        )
        assert res.returncode == 0
        csv_part, json_part = res.stdout.split("{", 1)
        summary = strict_json("{" + json_part)
        assert summary["gross_error_sensitivity"] == "unbounded"
        assert csv_part.splitlines()[0] == "probe,influence"

    def test_median_bounded(self, workdir):
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "median", "--probes", "10:1e6:6",
        )
        summary = strict_json("{" + res.stdout.split("{", 1)[1])
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

    @pytest.mark.parametrize("count", [10**20, 2**63 - 1])
    def test_unallocatable_probe_count_exit_2(self, workdir, count):
        # both counts are refused before anything is allocated
        res = run_cli(
            "influence", str(workdir / "dist.csv"),
            "--functional", "mean", "--probes", f"1:2:{count}",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--probes" in res.stderr
        assert "Traceback" not in res.stderr

    def test_probe_grid_matches_geomspace(self):
        # the arithmetic of np.geomspace: exact ends and 10 ** (log10(lo) + k * step)
        # between them.  numpy's log10 and power kernels may round differently
        # from the C library's, by 1 ulp: a power that does moves a probe by
        # 1 ulp, a log10 that does moves the exponents by a few ulp of the
        # larger |log10| of the ends, and so each probe by ln(10) times that
        rng = np.random.default_rng(3)
        grid = [(0.5, 50.0, 16), (10.0, 1e6, 7), (1e-300, 1e300, 1001), (1.0, 2.0, 2)]
        for _ in range(200):
            lo = 10.0 ** rng.uniform(-8, 8)
            grid.append((lo, lo * 10.0 ** rng.uniform(1e-6, 12), int(rng.integers(2, 300))))
        for lo, hi, count in grid:
            probes = np.array(_parse_probes(f"{lo!r}:{hi!r}:{count}"))
            want = np.geomspace(lo, hi, count)
            assert probes[0] == lo and probes[-1] == hi
            tol = 2 * np.spacing(want)
            if np.log10(lo) != math.log10(lo) or np.log10(hi) != math.log10(hi):
                exponent_ulp = np.spacing(max(abs(math.log10(lo)), abs(math.log10(hi))))
                tol += want * math.log(10) * 4 * exponent_ulp
            assert np.all(np.abs(probes - want) <= tol), (lo, hi, count)

    def test_mean_past_the_float_range_exit_3(self, tmp_path):
        # weights sum to 1 + 9e-13, inside the tolerance, so the mean overflows
        path = tmp_path / "top.csv"
        weights = ["0.3333333333336333", "0.3333333333336333", "0.3333333333336334"]
        path.write_text("".join(f"1.7976931348623157e308,{w}\n" for w in weights))
        res = run_cli("influence", str(path), "--probes", "1:2:3")
        assert_one_error_line(res, 3)
        assert "overflows the float range" in res.stderr

    @pytest.mark.parametrize("functional", ["mean", "trimmed:0.25"])
    def test_probes_near_the_top_of_the_float_range(self, tmp_path, functional):
        # two probe magnitudes above 9e307 sum past the float range
        path = tmp_path / "two.csv"
        path.write_text("0,0.5\n1,0.5\n")
        res = run_cli("influence", str(path), "--functional", functional,
                      "--probes", "1e308:1.7e308:5")
        assert res.returncode == 0, res.stderr
        summary = strict_json("{" + res.stdout.split("{", 1)[1])
        want = "unbounded" if functional == "mean" else 1
        assert summary["gross_error_sensitivity"] == want

    @pytest.mark.parametrize("functional", ["trimmed:0.1", "median"])
    def test_tied_rows_print_what_their_merged_twin_prints(self, tmp_path, functional):
        split, merged = tmp_path / "split.csv", tmp_path / "merged.csv"
        split.write_text("0,0.25\n1,0.25\n1,0.25\n2,0.25\n")
        merged.write_text("0,0.25\n1,0.5\n2,0.25\n")
        runs = [
            run_cli("influence", str(path), "--functional", functional, "--probes", "1:2:2")
            for path in (split, merged)
        ]
        assert [res.returncode for res in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize(
        "rows, functional, probes, want",
        [
            # IF = y - mean is unbounded, though it shrinks over these probes
            ("100,0.5\n101,0.5\n", "mean", "1:10:5", "unbounded"),
            # IF rises from 0 to 1.25 over two probes, and saturates there
            ("0,0.25\n1,0.5\n2,0.25\n", "trimmed:0.1", "1:2:2", 1.25),
        ],
        ids=["mean", "trimmed"],
    )
    def test_unbounded_verdict_comes_from_the_functional(
        self, tmp_path, rows, functional, probes, want
    ):
        path = tmp_path / "dist.csv"
        path.write_text(rows)
        res = run_cli("influence", str(path), "--functional", functional, "--probes", probes)
        assert res.returncode == 0, res.stderr
        summary = strict_json("{" + res.stdout.split("{", 1)[1])
        assert summary["gross_error_sensitivity"] == want

    def test_zero_trim_prints_what_the_mean_prints(self, tmp_path):
        # both are y - mean(F) to the last digit, not the mean summed atom by atom
        path = tmp_path / "normal.csv"
        x = np.random.default_rng(41).standard_normal(1000).tolist()
        path.write_text("".join(f"{v!r},0.001\n" for v in x))
        runs = [
            run_cli("influence", str(path), "--functional", functional, "--probes", "0.5:50:16")
            for functional in ("mean", "trimmed:0")
        ]
        assert [res.returncode for res in runs] == [0, 0]
        mean, zero = (res.stdout.splitlines() for res in runs)
        functional = [k for k, line in enumerate(mean) if '"functional"' in line]
        assert len(zero) == len(mean)
        assert [k for k, line in enumerate(zero) if line != mean[k]] == functional

    def test_weights_whose_sum_overflows_exit_2(self, tmp_path):
        path = tmp_path / "heavy.csv"
        path.write_text("1,1.7e308\n2,1.7e308\n")
        res = run_cli("influence", str(path), "--probes", "1:2:3")
        assert_one_error_line(res, 2)
        assert "weights must sum to 1 within 1e-12, got inf" in res.stderr

    def test_probe_grid_at_the_top_of_the_float_range(self, workdir):
        # both ends share one rounded log10, whose power overflows: the
        # probes past the float range are the max
        top = sys.float_info.max
        text = f"1.7976931348623155e308:{top!r}:3"
        assert _parse_probes(text) == [1.7976931348623155e308, top, top]
        res = run_cli("influence", str(workdir / "dist.csv"), "--probes", text)
        assert res.returncode == 0, res.stderr

    def test_variance_past_the_float_range_exit_3(self, tmp_path):
        # every influence value is finite, but IF^2 = 1e400 at both atoms
        path = tmp_path / "wide.csv"
        path.write_text("-1e200,0.5\n1e200,0.5\n")
        res = run_cli("influence", str(path), "--probes", "1:2:3")
        assert_one_error_line(res, 3)
        assert "variance overflows the float range" in res.stderr
        assert "Infinity" not in res.stderr

    def test_close_probe_ends_stay_sorted(self, tmp_path):
        # 10 ** (log10(min) + k * step) rounds below min for some k here
        path = tmp_path / "two.csv"
        path.write_text("0,0.5\n1,0.5\n")
        text = "8.104405193162552e-162:8.104405193163034e-162:6"
        res = run_cli("influence", str(path), "--probes", text)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        probes = [float(row.split(",")[0]) for row in res.stdout.splitlines()[1:7]]
        assert probes == sorted(probes) and len(probes) == 6

    @given(
        lo=st.floats(min_value=5e-324, max_value=1e300),
        steps=st.integers(1, 10**6),
        count=st.integers(2, 64),
    )
    def test_probe_grid_is_sorted_inside_its_ends(self, lo, steps, count):
        # ends a few ulp apart are where the rounded powers leave [min, max]
        hi = lo + steps * math.ulp(lo)
        probes = _parse_probes(f"{lo!r}:{hi!r}:{count}")
        assert probes == sorted(probes)
        assert probes[0] == lo and probes[-1] == hi

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
        report = strict_json(res.stdout)
        assert report["theorem1_counterexamples"] == 0
        assert report["theorem2_disagreements"] == 0
        assert report["theorem1_maps_checked"] == 3 + 9 + 27 + 2 + 4 + 8 + 1 + 1 + 1

    def test_bounds_default_to_4(self, capsys):
        assert run(["finite-check"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert (report["max_domain"], report["max_codomain"]) == (4, 4)

    def test_trivial_domain(self):
        res = run_cli("finite-check", "--max-domain", "1", "--max-codomain", "1")
        report = strict_json(res.stdout)
        assert report["theorem1_counterexamples"] == 0
        assert report["theorem1_maps_checked"] == 1

    def test_guard_exit_2(self):
        res = run_cli("finite-check", "--max-domain", "6")
        assert res.returncode == 2

    def test_closed_form_counts_5_5(self):
        res = run_cli("finite-check", "--max-domain", "5", "--max-codomain", "5")
        assert res.returncode == 0
        report = strict_json(res.stdout)
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
        report = strict_json(res.stdout)
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
        report = strict_json(res.stdout)
        assert (report["max_domain"], report["max_codomain"]) == (2, 4)
        assert report["theorem1_maps_checked"] == sum(c**d for d in (1, 2) for c in range(1, 5))

    def test_single_injective_map(self):
        res = run_cli("finite-check", "--map", "2 3 : 0,1")
        report = strict_json(res.stdout)
        assert report["injective"] is True
        assert report["estimator"] == "3 2 : 0,1,0"

    def test_unallocatable_estimator_exit_2(self):
        # Python refuses a 2**62-entry table before it allocates anything
        res = run_cli("finite-check", "--map", f"1 {2**62} : 0")
        assert_one_error_line(res, 2)
        assert "too large to allocate" in res.stderr

    def test_estimator_past_the_index_range_exit_2(self):
        # a codomain no index can hold reads as the allocation failure it is
        res = run_cli("finite-check", "--map", "1 99999999999999999999999 : 0")
        assert_one_error_line(res, 2)
        assert "too large to allocate" in res.stderr


class TestOutputRouting:
    @pytest.mark.parametrize(
        "args, has_table",
        [
            (["analyze", "identity.csv"], False),
            (["solve", "identity.csv", "data2.csv"], True),
            (["fredholm-demo", "--n", "200", "--n-osc", "1", "--noise", "0.01"], True),
            (["influence", "dist.csv", "--probes", "10:1e6:6"], True),
            (["finite-check", "--max-domain", "2", "--max-codomain", "2"], False),
        ],
        ids=["analyze", "solve", "fredholm-demo", "influence", "finite-check"],
    )
    def test_out_takes_the_first_document(self, workdir, args, has_table):
        plain = run_cli(*args, cwd=workdir)
        routed = run_cli(*args, "--out", "out.txt", cwd=workdir)
        assert plain.returncode == routed.returncode == 0
        assert plain.stderr == routed.stderr == ""
        # a table comes first and the JSON report starts on a line "{"
        split = plain.stdout.index("\n{\n") + 1 if has_table else len(plain.stdout)
        assert strict_json(plain.stdout[split:] or plain.stdout)
        assert (workdir / "out.txt").read_text() == plain.stdout[:split]
        assert routed.stdout == plain.stdout[split:]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "no_a.csv", "no_d.csv", "--method", "tsvd"], "tsvd requires --k"),
            (
                ["solve", "no_a.csv", "no_d.csv", "--method", "tikhonov"],
                "tikhonov requires --lambda or --noise",
            ),
            (
                ["solve", "no_a.csv", "no_d.csv", "--lambda", "1", "--noise", "1"],
                "mutually exclusive",
            ),
            (
                ["fredholm-demo", "--n", "200", "--n-osc", "1", "--lambda", "1", "--noise", "1"],
                "mutually exclusive",
            ),
            (
                ["solve", "no_a.csv", "no_d.csv", "--method", "tsvd", "--k", "1", "--noise", "0.1"],
                "not valid with tsvd",
            ),
            (
                ["analyze", "no_a.csv", "--param", "no_q.csv", "--kappa-threshold", "1"],
                "kappa_threshold must exceed 1",
            ),
            (["influence", "no_f.csv", "--functional", "trimmed:abc", "--probes", "1:2:2"],
             "bad trim fraction"),
            (["influence", "no_f.csv", "--functional", "foo", "--probes", "1:2:2"],
             "unknown functional"),
            (["influence", "no_f.csv", "--probes", "a:2:2"], "bad --probes"),
            (["influence", "no_f.csv", "--probes", "1:2:x"], "bad --probes"),
        ],
        ids=["tsvd-k", "tikhonov-weight", "solve-exclusive", "fredholm-exclusive",
             "tsvd-noise", "kappa", "trim-fraction", "functional", "probe-end", "probe-count"],
    )
    def test_option_error_precedes_reading_input(self, tmp_path, args, message):
        res = run_cli(*args, "--out", "out.txt", cwd=tmp_path)
        assert_one_error_line(res, 2)
        assert message in res.stderr
        assert not (tmp_path / "out.txt").exists()


class TestExitCodeContract:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=st.binary(max_size=64))
    def test_any_file_exits_0_2_or_3(self, tmp_path, capsys, text):
        # in process, so an exception that escapes run fails the test itself
        path = tmp_path / "any.csv"
        path.write_bytes(text)
        f = str(path)
        for args in (["analyze", f], ["solve", f, f], ["influence", f, "--probes", "1:2:3"]):
            assert run_in_process(args, capsys) in (0, 2, 3)

    # any probe range of positive floats and any count up to 12, over 2 or 3
    # atoms with locations or weights near the top of the float range
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        ends=st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=2, max_size=2, unique=True,
        ).map(sorted),
        count=st.integers(0, 12),
        atoms=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, -1.0, 1.7e308, -1.7e308, 1.7976931348623157e308,
                                 -1.7976931348623157e308]),
                st.sampled_from([0.5, 1 / 3, 0.25, 0.1, 0.9, 1.7e308, 1e308]),
            ),
            min_size=2, max_size=3,
        ),
        functional=st.sampled_from(["mean", "median", "trimmed:0.25"]),
    )
    @example(ends=[1.0, 2.0], count=1, atoms=[(0.0, 0.5), (1.0, 0.5)], functional="mean")
    @example(ends=[1e308, 1.7e308], count=5, atoms=[(0.0, 0.5), (1.0, 0.5)], functional="mean")
    @example(
        ends=[1e308, 1.7e308], count=5, atoms=[(0.0, 0.5), (1.0, 0.5)], functional="trimmed:0.25"
    )
    @example(ends=[1.0, 2.0], count=3, atoms=[(1.0, 1.7e308), (2.0, 1.7e308)], functional="mean")
    @example(
        ends=[1.7976931348623155e308, 1.7976931348623157e308], count=3,
        atoms=[(0.0, 0.5), (1.0, 0.5)], functional="mean",
    )
    @example(
        ends=[1e307, 5e307], count=11, atoms=[(-1.7e308, 0.9), (1.7e308, 0.1)], functional="mean"
    )
    def test_influence_over_the_float_range_exits_0_2_or_3(
        self, tmp_path, capsys, ends, count, atoms, functional
    ):
        path = tmp_path / "atoms.csv"
        path.write_text("".join(f"{x!r},{w!r}\n" for x, w in atoms))
        probes = f"{ends[0]!r}:{ends[1]!r}:{count}"
        args = ["influence", str(path), "--functional", functional, "--probes", probes]
        assert run_in_process(args, capsys) in (0, 2, 3)


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
    return subprocess.run(
        [*PYTHON, "-c", code, *args], capture_output=True, text=True, env=ENV
    )


class TestNumpyFree:
    def test_import_cli(self):
        code = "import sys, illposed.cli; sys.exit('numpy' in sys.modules)"
        res = subprocess.run([*PYTHON, "-c", code], env=ENV)
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
        assert strict_json(res.stdout)

    def test_finite_check_error_path(self):
        res = numpy_free_run("finite-check", "--max-domain", "6")
        assert res.returncode == 2
        assert "[1, 5]" in res.stderr

    @pytest.mark.parametrize("functional", ["mean", "median", "trimmed:0.25"])
    def test_influence(self, workdir, functional):
        res = numpy_free_run(
            "influence", str(workdir / "dist.csv"), "--functional", functional,
            "--probes", "10:1e6:6",
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("probe,influence\n")
        assert strict_json(res.stdout[res.stdout.index("{"):])["functional"] == functional

    @pytest.mark.parametrize(
        "dist, probes, code, message",
        [
            ("knife.csv", "100:1e4:3", 3, "converge"),
            ("missing.csv", "10:1e6:6", 2, "missing.csv"),
            ("dist.csv", "10:1e6", 2, "--probes"),
            ("dist.csv", "1:2:0", 2, "--probes"),
            ("dist.csv", "1:2:1", 2, "count >= 2"),
        ],
        ids=["median-jump", "missing-file", "bad-probes", "bad-probe-count", "one-probe"],
    )
    def test_influence_error_paths(self, workdir, dist, probes, code, message):
        (workdir / "knife.csv").write_text("0.0,0.5\n10.0,0.5\n")
        res = numpy_free_run(
            "influence", str(workdir / dist), "--functional", "median", "--probes", probes
        )
        assert_one_error_line(res, code)
        assert message in res.stderr


# what a finite-check or influence child, and importing the CLI, must not
# load: numpy, and the standard modules that would dominate their start-up
# (dataclasses pulls in inspect; json is only needed for escaped strings)
STARTUP_FREE = ("numpy", "dataclasses", "inspect", "json")


def loaded_modules(workdir, args, watched):
    """The stderr line ``loaded: ...`` naming each watched module a CLI child
    loads beyond what a bare interpreter holds, so a site hook that imports
    one of them cannot fail a test; asserts the child exits 0."""
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from illposed.cli import run\n"
        "status = run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        f"loaded = [m for m in {watched!r} if m in sys.modules and m not in bare]\n"
        "print('loaded:', *loaded, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    res = subprocess.run(
        [*PYTHON, "-c", code, *args],
        capture_output=True, text=True, cwd=workdir,
        env=ENV,
    )
    assert res.returncode == 0, res.stderr
    return res.stderr


class TestStartupImports:
    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["finite-check"],
            ["finite-check", "--map", "4 3 : 0,1,1,2", "--param", "4 2 : 0,0,1,1"],
            *(
                ["influence", "dist.csv", "--functional", f, "--probes", "10:1e6:6"]
                for f in ("mean", "median", "trimmed:0.25")
            ),
        ],
        ids=["import-cli", "sweep", "map-param", "mean", "median", "trimmed"],
    )
    def test_loads_none_of_the_costly_modules(self, workdir, args):
        assert loaded_modules(workdir, args, STARTUP_FREE) == "loaded:\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "identity.csv", "--param", "param_x.csv"],
            ["solve", "identity.csv", "data2.csv", "--method", "tikhonov", "--lambda", "0.1"],
            ["fredholm-demo", "--n", "100", "--n-osc", "1", "--lambda", "1e-3"],
        ],
        ids=["analyze", "solve", "fredholm-demo"],
    )
    def test_numpy_subcommands_load_no_dataclasses(self, workdir, args):
        # numpy itself does not load dataclasses; every record is a records.Record
        assert loaded_modules(workdir, args, ("dataclasses",)) == "loaded:\n"

    @pytest.mark.parametrize("above", [False, True], ids=["below-floor", "above-floor"])
    @pytest.mark.parametrize("command", ["analyze", "solve"])
    def test_loads_the_split_reader_only_above_the_floor(self, tmp_path, command, above):
        # importing illposed._loadtxt adds about 0.2 MB to a solve's peak RSS,
        # so a file parsed whole must not pay for it
        from illposed.fileio import _RANGE_FLOOR

        if above and (
            not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
        ):
            pytest.skip("needs fork and 2 usable CPUs")
        row = ",".join(["0.12345678901234567"] * 1000) + "\n"
        rows = 2 * _RANGE_FLOOR // len(row) + (1 if above else -1)
        matrix, data = tmp_path / "m.csv", tmp_path / "d.csv"
        matrix.write_text(row * rows)
        data.write_text("1\n" * rows)
        assert (matrix.stat().st_size >= 2 * _RANGE_FLOOR) == above
        args = [command, str(matrix)] + ([str(data)] if command == "solve" else [])
        code = (
            "import sys\n"
            "from illposed.cli import run\n"
            "status = run(sys.argv[1:])\n"
            "print('loaded:', 'illposed._loadtxt' in sys.modules, file=sys.stderr)\n"
            "sys.exit(status)\n"
        )
        res = subprocess.run(
            [*PYTHON, "-c", code, *args],
            capture_output=True, text=True, env=ENV,
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == f"loaded: {above}\n"
