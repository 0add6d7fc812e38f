import ast
import importlib.util
import pathlib
import re
import subprocess

import pytest

import illposed
from launcher import ENV, PYTHON

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        illposed.not_a_name
    with pytest.raises(ImportError):
        exec("from illposed import not_a_name", {})


def test_dir_lists_exports():
    assert "__version__" in dir(illposed)


def test_finite_maps_import_without_numpy():
    code = (
        "import sys\n"
        "from illposed.errors import InvalidInputError\n"
        "from illposed.finite_maps import FiniteMap, fisher_consistent_estimator\n"
        "assert fisher_consistent_estimator(FiniteMap(2, 3, (0, 1))) is not None\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    res = subprocess.run([*PYTHON, "-c", code], env=ENV)
    assert res.returncode == 0


def test_influence_profile_without_numpy():
    code = (
        "import sys\n"
        "from illposed.robustness import MEAN, EmpiricalDistribution, influence_profile\n"
        "f = EmpiricalDistribution([-1.0, 1.0], [0.5, 0.5])\n"
        "profile = influence_profile(MEAN, f, [-2.0, 0.0, 2.0])\n"
        "assert profile.values == (-2.0, 0.0, 2.0)\n"
        "assert profile.asymptotic_variance == 1.0\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    res = subprocess.run([*PYTHON, "-c", code], env=ENV)
    assert res.returncode == 0


def test_package_root_binds_no_public_name():
    code = (
        "import sys, illposed\n"
        "public = [name for name in vars(illposed) if not name.startswith('_')]\n"
        "assert public == [], public\n"
        "assert not hasattr(illposed, 'diagnose')\n"
        "loaded = [name for name in sys.modules if name.startswith('illposed.')]\n"
        "assert loaded == [], loaded\n"
    )
    res = subprocess.run([*PYTHON, "-c", code], env=ENV)
    assert res.returncode == 0


def test_star_import():
    code = (
        "import sys\n"
        "namespace = {}\n"
        "exec('from illposed import *', namespace)\n"
        "bound = sorted(name for name in namespace if name != '__builtins__')\n"
        "assert bound == [], bound\n"
        "loaded = [name for name in sys.modules if name.startswith('illposed.')]\n"
        "assert loaded == [], loaded\n"
    )
    res = subprocess.run([*PYTHON, "-c", code], env=ENV)
    assert res.returncode == 0


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    res = subprocess.run(
        [*PYTHON, "-c", code], env=ENV,
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ILL_CONDITIONED\n327\nFalse\nTrue\n"


def test_every_public_name_has_a_reader():
    # a reader is code in src/ or scripts/, the acceptance suite, or the
    # benchmark's tracer, which names the functions it wraps as strings;
    # a name that none of them reads is kept only if its module docstring
    # names it, with the statement of the paper it reproduces
    readers = [
        *(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py", ROOT / "bench" / "tracing.py",
    ]
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path in sorted((ROOT / "src" / "illposed").glob("*.py")):
        module = ast.parse(path.read_text())
        docstring = ast.get_docstring(module) or ""
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in read and not re.search(rf"\b{node.name}\b", docstring):
                unread.append(f"{path.stem}.{node.name}")
    assert not unread, f"no reader: {', '.join(unread)}"


def test_tracer_names_exist():
    # the benchmark's tracer wraps these names, given as strings, and its
    # Tracer.install raises AttributeError on one that is gone; loaded by
    # path, as it imports only the standard library
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for table in (tracing.SPANNED, tracing.COUNTED)
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"illposed.{layer}"), name, None))
    ]
    assert not missing, f"the tracer names these, and they are gone: {', '.join(missing)}"
    from illposed import finite_maps

    assert callable(finite_maps.enumerate_sections.cache_info)
