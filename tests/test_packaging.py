"""The runtime dependencies that pyproject.toml declares are the ones the
package imports; importing the package loads nothing else; and each public
name of the package has a caller outside its own tests."""

import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "resfluor")


def _third_party_imports():
    names = set()
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in tree.body:
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_runtime_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    assert names == _third_party_imports()


def test_import_loads_no_submodule():
    code = ("import sys, resfluor; "
            "print(sorted(m for m in sys.modules if m.startswith('resfluor.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _referenced_names(path):
    """Names the file's code loads, reads as attributes or imports by name;
    docstrings and comments do not count."""
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _public_names(path):
    """Public module-level functions, classes and constants."""
    names = set()
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_has_a_caller():
    # callers: the package's modules (the definition itself is not a load),
    # tools/, perfbench/ and the acceptance criteria; a name that only its
    # own unit tests reach is dead API
    modules = [os.path.join(PACKAGE, f) for f in sorted(os.listdir(PACKAGE))
               if f.endswith(".py") and f != "__init__.py"]
    callers = modules + [os.path.join(ROOT, "tests", "test_acceptance.py")]
    for sub in ("tools", "perfbench"):
        directory = os.path.join(ROOT, sub)
        callers += [os.path.join(directory, f) for f in sorted(os.listdir(directory))
                    if f.endswith(".py")]
    used = set().union(*map(_referenced_names, callers))
    unused = [f"{os.path.basename(m)}:{name}" for m in modules
              for name in sorted(_public_names(m) - used)]
    assert unused == []
