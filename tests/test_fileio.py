import contextlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from illposed import _loadtxt, fileio
from illposed.errors import ParseError
from illposed.fileio import (
    _json_value,
    _load,
    _parse_columns,
    fmt_float,
    json_flat,
    matrix_to_csv,
    read_distribution_csv,
    read_matrix_csv,
    read_vector_csv,
    vector_to_csv,
)

RNG = np.random.default_rng(99)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# children treat warnings as errors, as pyproject.toml does in process
PYTHON = [
    sys.executable, "-B", "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
    "-W", "error::DeprecationWarning", "-W", "error::PendingDeprecationWarning",
]
FINITE_MATRICES = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, max_side=5),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


class TestFloatFormatting:
    def test_round_trip_exact(self):
        # 17 significant digits reproduce any double exactly
        for x in RNG.standard_normal(500) * 10.0 ** RNG.integers(-300, 300, 500):
            assert float(fmt_float(x)) == x

    def test_non_finite(self):
        assert fmt_float(float("inf")) == "Infinity"
        assert fmt_float(float("-inf")) == "-Infinity"
        assert fmt_float(float("nan")) == "NaN"


class TestCsv:
    def test_matrix_round_trip(self, tmp_path):
        m = RNG.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_csv(m))
        assert np.array_equal(read_matrix_csv(str(path)).matrix, m)

    def test_vector_round_trip(self, tmp_path):
        v = RNG.standard_normal(7)
        path = tmp_path / "v.csv"
        path.write_text(vector_to_csv(v))
        assert np.array_equal(read_vector_csv(str(path)), v)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError, match="bad.csv:2"):
            read_matrix_csv(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="ragged.csv:2"):
            read_matrix_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ParseError):
            read_matrix_csv(str(path))

    def test_distribution(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,0.25\n3.0,0.75\n")
        dist = read_distribution_csv(str(path))
        assert tuple(zip(dist.locations, dist.weights)) == ((1.0, 0.25), (3.0, 0.75))

    def test_information_separators_are_whitespace(self, tmp_path):
        # numpy strips U+001C-U+001F around a field, and so does the line parser
        path = tmp_path / "sep.csv"
        path.write_text("1,\x1c2\n")
        assert read_matrix_csv(str(path)).matrix.tolist() == [[1.0, 2.0]]
        res = subprocess.run(
            [*PYTHON, "-m", "illposed", "analyze", str(path)],
            capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert res.returncode == 0, res.stderr


# inputs on which numpy and the line-by-line parser may disagree; the
# readers must behave exactly as the line-by-line parser does on each
PARSER_CASES = {
    "blank line in the middle": "1,2\n\n3,4\n",
    "whitespace-only line": "1,2\n \t \n3,4\n",
    "spaces around fields": " 1 , 2 \n3 ,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "underscore": "1_0,2\n",
    "tab around a field": "1\t,\t2\n",
    "tab as separator": "1\t2\n3\t4\n",
    "inf and nan": "inf,-Infinity\nnan,1\n",
    "hash in a field": "1,#2\n",
    "hash comment line": "# header\n1,2\n",
    "trailing comma": "1,2,\n",
    "ragged rows": "1,2\n3\n",
    "byte order mark": "\ufeff1,2\n",
    "plus sign and exponent": "+1,4e0\n-2,.5E-1\n",
    "hex": "0x10,1\n",
    "information separator inside a line": "1,\x1c2\n",
    "information separator at the line end": "1,2\x1c\n",
    "information separator between two digits": "1\x1c2,3\n",
    "line of information separators only": "1,2\n\x1c\x1d\x1e\x1f\n3,4\n",
    "vertical tab and form feed around a field": "\x0b1\x0c,\x0c2\x0b\n",
    "unicode spaces around a field": "\u00a01\u2003,\u30002\u00a0\n",
    "non-ascii digit": "\u0661,2\n",
    "one column": "1\n2\n",
    "empty": "",
    "blank": " \n\n",
}


def parse_outcome(fn, path, n_fields):
    try:
        rows = np.asarray(fn(path, n_fields), dtype=float)
    except ParseError as exc:
        return "error", str(exc)
    return "rows", rows.shape, rows.view(np.int64).tolist()


def line_parser_rows(path, n_fields):
    return np.transpose(_parse_columns(path, n_fields))


def assert_round_trip(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    path.write_text(matrix_to_csv(m))
    back = read_matrix_csv(str(path)).matrix
    assert back.shape == m.shape
    assert np.array_equal(back.view(np.int64), m.view(np.int64))


class TestNumpyParse:
    @pytest.mark.parametrize("n_fields", [None, 1, 2])
    @pytest.mark.parametrize("text", PARSER_CASES.values(), ids=PARSER_CASES.keys())
    def test_agrees_with_line_parser(self, tmp_path, text, n_fields):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parse_outcome(_load, str(path), n_fields) == parse_outcome(
            line_parser_rows, str(path), n_fields
        )

    @given(FINITE_MATRICES)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, m):
        assert_round_trip(tmp_path_factory, m)

    def test_vector_reader_rejects_two_columns(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError, match="two.csv:1: expected 1 fields, got 2"):
            read_vector_csv(str(path))

    def test_matrix_memory_peak(self, tmp_path):
        # the parsed matrix takes 8 n^2 bytes; the text and the Python
        # floats of a line-by-line parse must not be held on top of it
        n = 500
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_csv(RNG.standard_normal((n, n))))
        tracemalloc.start()
        try:
            read_matrix_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n

    def test_distribution_memory_peak(self, tmp_path):
        # the line parser fills one list per column; a list per row on top
        # of the floats took four times what the distribution holds
        m = 10**5
        path = tmp_path / "d.csv"
        path.write_text("".join(f"{x!r},{1 / m!r}\n" for x in RNG.standard_normal(m).tolist()))
        tracemalloc.start()
        try:
            dist = read_distribution_csv(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dist.locations) == m
        assert peak <= 3 * held


# inputs that put an unusual line, or a change of shape, at or past a cut
CUT_CASES = {
    "ragged row in the last range": "1,2\n3,4\n5,6\n7\n",
    "bad field in the last range": "1,2\n3,4\n5,6\n7,x\n",
    "column count changes at a cut": "1,2\n3,4\n5,6,7\n8,9,10\n",
    "blank and whitespace-only lines at a cut": "1,2\n3,4\n\n \t\n\n5,6\n7,8\n",
    "a range of blank lines only": "1,2\n" + "\n" * 12,
    "crlf at every cut": "1,2\r\n3,4\r\n5,6\r\n7,8\r\n",
    "lone carriage returns": "1,2\r3,4\r5,6\r7,8\r",
    "no trailing newline": "1,2\n3,4\n5,6\n7,8",
    "separator only in a worker's range": "1,2\n3,4\n5,6\n7,\x1c8\n",
    "a single line": "1,2,3,4,5,6,7,8\n",
}


@pytest.fixture
def split(monkeypatch):
    """Cut every file into up to four ranges, however small; returns the
    pids of the workers forked."""
    if not hasattr(os, "fork"):
        pytest.skip("parse ranges run in forked workers")
    monkeypatch.setattr(fileio, "_RANGE_FLOOR", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@contextlib.contextmanager
def deadline(seconds):
    """Raise in a wait that would block for good, instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSplitParse:
    """Files cut into ranges parse exactly as the line-by-line parser reads them."""

    @pytest.mark.parametrize("n_fields", [None, 1, 2])
    @pytest.mark.parametrize(
        "text", [*PARSER_CASES.values(), *CUT_CASES.values()], ids=[*PARSER_CASES, *CUT_CASES]
    )
    def test_agrees_with_line_parser(self, split, tmp_path, text, n_fields):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parse_outcome(_load, str(path), n_fields) == parse_outcome(
            line_parser_rows, str(path), n_fields
        )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(FINITE_MATRICES)
    def test_round_trip_is_bit_exact(self, split, tmp_path_factory, m):
        assert_round_trip(tmp_path_factory, m)

    def test_every_range_goes_to_a_worker(self, split, tmp_path):
        m = RNG.standard_normal((8, 3))
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_csv(m))
        rows = _load(str(path))
        assert len(split) == 3
        assert rows.flags.c_contiguous and rows.flags.owndata
        assert np.array_equal(rows.view(np.int64), m.view(np.int64))

    def test_a_single_line_is_one_range(self, split, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("1,2,3,4,5,6,7,8\n")
        assert _load(str(path)).tolist() == [[1, 2, 3, 4, 5, 6, 7, 8]]
        assert split == []

    def test_fork_warning_is_silenced(self, split, monkeypatch, tmp_path):
        # Python 3.12 and later warn on every fork in a process with threads
        fork = os.fork

        def warning_fork():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        m = RNG.standard_normal((8, 3))
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_csv(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _load(str(path))
        assert len(split) == 3
        assert np.array_equal(rows.view(np.int64), m.view(np.int64))

    @pytest.mark.parametrize("when", ["before its rows", "after its shape"])
    def test_failed_worker_falls_back(self, split, monkeypatch, tmp_path, when):
        parent = os.getpid()
        parse, write = _loadtxt.parse_range, os.write

        def failing_parse(path, start, end):
            if os.getpid() != parent and when == "before its rows":
                raise MemoryError
            return parse(path, start, end)

        def failing_write(fd, data):
            if os.getpid() != parent and len(data) != 16:  # past the shape header
                os._exit(1)
            return write(fd, data)

        def no_line_parser(path, n_fields):
            raise AssertionError("numpy's whole-file parse should have taken over")

        monkeypatch.setattr(_loadtxt, "parse_range", failing_parse)
        monkeypatch.setattr(os, "write", failing_write)
        monkeypatch.setattr(fileio, "_parse_columns", no_line_parser)
        m = RNG.standard_normal((8, 3))
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_csv(m))
        rows = _load(str(path))
        assert len(split) == 3
        assert np.array_equal(rows.view(np.int64), m.view(np.int64))

    def test_interrupt_reaps_blocked_workers(self, split, monkeypatch, tmp_path):
        # each worker's rows overflow a pipe, so it is still writing when the
        # parent stops reading after the first shape header
        path = tmp_path / "v.csv"
        path.write_text(vector_to_csv(RNG.standard_normal(80_000)))
        readv = os.readv
        reads = []

        def interrupted_readv(fd, buffers):
            reads.append(fd)
            if len(reads) > 1:
                raise KeyboardInterrupt
            return readv(fd, buffers)

        monkeypatch.setattr(os, "readv", interrupted_readv)
        with deadline(60), pytest.raises(KeyboardInterrupt):
            _load(str(path))
        assert len(split) == 3

    def test_workers_peak_below_the_reader(self, tmp_path):
        # a worker's max RSS folds into the max RSS that wait4 reports for
        # the process that read the file, so a worker must not set it
        if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2 or not hasattr(os, "fork"):
            pytest.skip("needs fork and 2 usable CPUs")
        row = ",".join(["0.12345678901234567"] * 500) + "\n"
        path = tmp_path / "m.csv"
        path.write_text(row * (2 * fileio._RANGE_FLOOR // len(row) + 1))
        code = (
            "import resource, sys\n"
            "from illposed.fileio import read_matrix_csv\n"
            "read_matrix_csv(sys.argv[1])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
            " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        res = subprocess.run(
            [*PYTHON, "-c", code, str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        reader, workers = map(int, res.stdout.split())
        assert 0 < workers <= reader


class TestJsonFlat:
    def test_parses_and_preserves_types(self):
        text = json_flat(
            {
                "name": "x",
                "flag": True,
                "none": None,
                "count": 3,
                "value": 0.1,
                "seq": [1.5, 2.5],
            }
        )
        parsed = json.loads(text)
        assert parsed == {
            "name": "x",
            "flag": True,
            "none": None,
            "count": 3,
            "value": 0.1,
            "seq": [1.5, 2.5],
        }

    @given(st.text())
    def test_strings_quote_as_json_dumps(self, s):
        assert _json_value(s) == json.dumps(s)
        assert json.loads(json_flat({s: s})) == {s: s}

    @pytest.mark.parametrize(
        "s", ["", "plain key_1", 'a"b', "a\\b", "tab\t", "\x7f", "\u00e9", "\U0001f600"]
    )
    def test_strings_that_need_escapes(self, s):
        assert _json_value(s) == json.dumps(s)
        assert json_flat({s: s}) == f"{{\n  {json.dumps(s)}: {json.dumps(s)}\n}}\n"

    def test_numpy_scalars(self):
        text = json_flat({"a": np.float64(0.5), "b": np.int64(2), "c": np.bool_(True)})
        assert json.loads(text) == {"a": 0.5, "b": 2, "c": True}
