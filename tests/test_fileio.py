import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from illposed.errors import ParseError
from illposed.fileio import (
    _load,
    _parse_rows,
    fmt_float,
    json_flat,
    matrix_to_csv,
    read_distribution_csv,
    read_matrix_csv,
    read_vector_csv,
    vector_to_csv,
)

RNG = np.random.default_rng(99)


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
        assert dist.atoms == ((1.0, 0.25), (3.0, 0.75))


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


class TestNumpyParse:
    @pytest.mark.parametrize("n_fields", [None, 1, 2])
    @pytest.mark.parametrize("text", PARSER_CASES.values(), ids=PARSER_CASES.keys())
    def test_agrees_with_line_parser(self, tmp_path, text, n_fields):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parse_outcome(_load, str(path), n_fields) == parse_outcome(
            _parse_rows, str(path), n_fields
        )

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=5),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("rt") / "m.csv"
        path.write_text(matrix_to_csv(m))
        back = read_matrix_csv(str(path)).matrix
        assert back.shape == m.shape
        assert np.array_equal(back.view(np.int64), m.view(np.int64))

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

    def test_numpy_scalars(self):
        text = json_flat({"a": np.float64(0.5), "b": np.int64(2), "c": np.bool_(True)})
        assert json.loads(text) == {"a": 0.5, "b": 2, "c": True}
