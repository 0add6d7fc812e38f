"""How the suite starts a child Python on the source tree.

pytest does not collect it, as its name does not start with ``test_``.
``PYTHON`` is the child's interpreter and flags, and ``ENV`` its whole
environment; a child that needs more variables extends a copy,
``{**ENV, ...}``.
"""

import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
# children treat warnings as errors, as pyproject.toml does in process
PYTHON = [
    sys.executable, "-B", "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
    "-W", "error::DeprecationWarning", "-W", "error::PendingDeprecationWarning",
]
ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
