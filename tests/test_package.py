import pathlib
import subprocess
import sys

import pytest

import illposed

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
# children treat warnings as errors, as pyproject.toml does in process
PYTHON = [sys.executable, "-B", "-W", "error::RuntimeWarning", "-W", "error::UserWarning"]

MODULES = ("diagnostics", "errors", "finite_maps", "fredholm", "linop", "regularization",
           "robustness")


def test_every_exported_name_resolves():
    for name in illposed.__all__:
        assert getattr(illposed, name) is not None


def test_names_are_the_submodule_objects():
    modules = [getattr(illposed, name) for name in MODULES]
    for name in illposed.__all__:
        assert any(vars(m).get(name) is getattr(illposed, name) for m in modules), name


def test_star_import():
    namespace = {}
    exec("from illposed import *", namespace)
    assert set(illposed.__all__) <= set(namespace)
    assert namespace["diagnose"] is illposed.diagnostics.diagnose


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        illposed.not_a_name
    with pytest.raises(ImportError):
        exec("from illposed import not_a_name", {})


def test_dir_lists_exports():
    assert set(illposed.__all__) <= set(dir(illposed))
    assert "__version__" in dir(illposed)


def test_finite_maps_import_without_numpy():
    code = (
        "import sys, illposed\n"
        "assert illposed.finite_maps.FiniteMap is illposed.FiniteMap\n"
        "from illposed import FiniteMap, fisher_consistent_estimator, InvalidInputError\n"
        "assert fisher_consistent_estimator(FiniteMap(2, 3, (0, 1))) is not None\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    res = subprocess.run(
        [*PYTHON, "-c", code], env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    )
    assert res.returncode == 0


def test_influence_profile_without_numpy():
    code = (
        "import sys\n"
        "from illposed import EmpiricalDistribution, influence_profile, MEAN\n"
        "f = EmpiricalDistribution([-1.0, 1.0], [0.5, 0.5])\n"
        "profile = influence_profile(MEAN, f, [-2.0, 0.0, 2.0])\n"
        "assert profile.values == (-2.0, 0.0, 2.0)\n"
        "assert profile.asymptotic_variance == 1.0\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    res = subprocess.run(
        [*PYTHON, "-c", code], env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    )
    assert res.returncode == 0
