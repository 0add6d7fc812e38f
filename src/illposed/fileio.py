"""CSV and JSON serialization with byte-stable formatting.

All floats are written with 17 significant digits so values round-trip
exactly and identical invocations produce identical bytes.

Matrices and vectors are parsed by ``numpy.loadtxt``, which converts each
field with the same correctly rounded conversion as Python's ``float``.
Where numpy rejects a file, the reader needs another column count, or the
file holds a character numpy would strip from a field and ``float`` would
not, the file is parsed again line by line in Python.  That parser alone
reads distributions; it accepts exactly the inputs the readers have always
accepted (blank lines, underscores in numbers) and reports errors as
``path:lineno: message``.

The module imports numpy only inside the readers and writers that use it,
so ``read_distribution_csv``, ``fmt_float`` and ``json_flat`` run without it.
"""

from __future__ import annotations

import math
import warnings

from .errors import ParseError


def fmt_float(x: float) -> str:
    """Float as a decimal literal with 17 significant digits."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _parse_columns(path: str, n_fields: int | None = None) -> list[list[float]]:
    """The columns of a CSV, filled line by line: no list is kept per row."""
    columns: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = stripped.split(",")
            if n_fields is not None and len(fields) != n_fields:
                raise ParseError(
                    f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
                )
            try:
                row = [float(v) for v in fields]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not columns:
                columns = [[] for _ in row]
            elif len(row) != len(columns):
                raise ParseError(
                    f"{path}:{lineno}: row has {len(row)} fields, "
                    f"first row has {len(columns)}"
                )
            for column, v in zip(columns, row):
                column.append(v)
    if not columns:
        raise ParseError(f"{path}: no data rows")
    return columns


# ASCII information separators: numpy strips them around a field, float() does not
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _has_separators(path: str) -> bool:
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if any(sep in chunk for sep in _SEPARATORS):
                return True
    return False


def _load(path: str, n_fields: int | None = None) -> np.ndarray:
    """The rows of a CSV as a 2-D float array, as :func:`_parse_columns` reads them."""
    import numpy as np

    try:
        with warnings.catch_warnings():
            # numpy only warns about a file without data; here it is an error
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
    except (OSError, ValueError, UserWarning):
        return np.column_stack(_parse_columns(path, n_fields))
    if (n_fields is not None and rows.shape[1] != n_fields) or _has_separators(path):
        return np.column_stack(_parse_columns(path, n_fields))
    return rows


def read_matrix_csv(path: str) -> DenseOperator:
    """Read a headerless CSV of decimal reals; dimensions are inferred."""
    from .linop import DenseOperator

    rows = _load(path)
    rows.flags.writeable = False  # so the operator adopts it without a copy
    return DenseOperator(rows)


def read_vector_csv(path: str) -> np.ndarray:
    """Read a one-column CSV as a vector."""
    return _load(path, n_fields=1)[:, 0]


def read_distribution_csv(path: str) -> EmpiricalDistribution:
    """Read (location, weight) rows into an EmpiricalDistribution."""
    from .robustness import EmpiricalDistribution

    return EmpiricalDistribution(*_parse_columns(path, n_fields=2))


def matrix_to_csv(matrix: np.ndarray) -> str:
    import numpy as np

    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    return "\n".join(",".join(fmt_float(v) for v in row) for row in arr) + "\n"


def vector_to_csv(vec: np.ndarray) -> str:
    import numpy as np

    return "\n".join(fmt_float(v) for v in np.asarray(vec, dtype=float)) + "\n"


def table_to_csv(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_value(v) -> str:
    if hasattr(v, "tolist"):  # a numpy scalar or array, as Python values
        v = v.tolist()
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, str):
        if v.isascii() and v.isprintable() and '"' not in v and "\\" not in v:
            return f'"{v}"'  # as json.dumps writes a string that needs no escape
        import json  # only a string with an escape pays for the import

        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(item) for item in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def json_flat(d: dict) -> str:
    """Flat JSON object with keys in insertion order."""
    body = ",\n".join(f"  {_json_value(k)}: {_json_value(v)}" for k, v in d.items())
    return "{\n" + body + "\n}\n"
