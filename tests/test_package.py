import argparse
import ast
import importlib.util
import pathlib
import re
import shlex
import subprocess

import pytest

import illposed
from illposed import cli
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


def test_readme_cli_matches_the_parser():
    # the README names every option of the parser and no other (pip's own
    # --no-build-isolation aside), and each of its example lines parses
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert named - options == set(), "the README names options the parser lacks"
    assert options - named == set(), "the README leaves parser options undocumented"
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("illposed ")
    ]
    assert lines
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


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


class ConventionSites(ast.NodeVisitor):
    """Where each array convention is spelled out, by the innermost enclosing def.

    ``adopt``: a read of an array's ``flags.writeable`` or ``flags.owndata``.
    ``unit``: ``math.frexp`` of an expression that takes ``np.max``, or
    ``np.ldexp`` by a negated exponent.
    """

    def __init__(self, module):
        self.where, self.sites = [module], {"adopt": set(), "unit": set()}

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Attribute(self, node):
        flags = isinstance(node.value, ast.Attribute) and node.value.attr == "flags"
        if flags and node.attr in ("writeable", "owndata") and isinstance(node.ctx, ast.Load):
            self.sites["adopt"].add(".".join(self.where))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = ast.unparse(node.func)
        frexp_of_max = func == "math.frexp" and "np.max(" in ast.unparse(node)
        if frexp_of_max or (func == "np.ldexp" and ast.unparse(node.args[-1]).startswith("-")):
            self.sites["unit"].add(".".join(self.where))
        self.generic_visit(node)


def test_each_array_convention_has_one_spelling():
    # an incoming array becomes a field only through linop._adopt, and a vector
    # is scaled to unit exponent only by linop._unit
    sites = {"adopt": set(), "unit": set()}
    for path in sorted((ROOT / "src" / "illposed").glob("*.py")):
        visitor = ConventionSites(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        for kind, found in visitor.sites.items():
            sites[kind] |= found
    assert sites == {"adopt": {"linop._adopt"}, "unit": {"linop._unit"}}
