import os
import pathlib
import sys

import pytest

# leave no bytecode caches in the source tree
sys.dont_write_bytecode = True
# allow running the suite without installing the package
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else 'unreaped'}")
