"""The runtime dependencies that pyproject.toml declares are the ones the
package imports; importing the package loads nothing else; each public
name of the package has a caller outside its own tests; each option of
the public API (a defaulted parameter or dataclass field) is passed by
one; every name an annotation reads is bound in its module; and no code
but the CLI's last resort catches a float-range error."""

import ast
import builtins
import math
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
        # every import, also one inside a function (a command's own layers)
        for node in ast.walk(tree):
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


def test_fit_spectrum_leaves_numpy_ma_unloaded(tmp_path):
    # np.median's nan check imports numpy.ma, ~14 ms of a fresh process; the
    # line seed takes its median from np.partition instead
    from resfluor.cli import main

    assert main(["simulate", "extinction", "--out", str(tmp_path / "sim")]) == 0
    argv = ["analyze", "fit-spectrum", str(tmp_path / "sim" / "extinction.csv"),
            "--out", str(tmp_path / "fit")]
    code = ("import sys; from resfluor.cli import main; "
            f"code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


BASE_MODULES = {"resfluor", "resfluor.cli", "resfluor.config", "resfluor.physics",
                "resfluor.spectra", "resfluor.measurement"}


def _loaded_modules(argv=None):
    """(exit code, resfluor modules loaded) of main(argv) in a fresh
    interpreter; with no argv, (None, the modules) of importing the CLI."""
    code = (f"import sys; from resfluor.cli import main; argv = {argv!r}; "
            "code = main(argv) if argv else None; "
            "print(code, sorted(m for m in sys.modules if m.startswith('resfluor')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    exit_code, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    return ast.literal_eval(exit_code), set(ast.literal_eval(modules))


def test_cli_import_loads_only_the_base_modules():
    # the layers a command needs are imported by that command
    assert _loaded_modules() == (None, BASE_MODULES)


# correlation and polarization bind estimation's minimize at import (the
# benchmark's tracer reads it there), so the g2 commands and reproduce fig4,
# which fit nothing, load the fit engine too
G2_MODULES = {"resfluor.correlation", "resfluor.estimation"}


@pytest.mark.parametrize("argv,extra", [
    (["reproduce", "fig3"], set()),
    (["simulate", "mollow"], set()),
    (["analyze", "fit-spectrum", "{sim}/extinction.csv"], {"resfluor.estimation"}),
    (["simulate", "g2"], G2_MODULES),
    (["reproduce", "fig5"], G2_MODULES),
    (["reproduce", "fig4"], {"resfluor.polarization", "resfluor.estimation"}),
])
def test_command_loads_only_its_layers(tmp_path, argv, extra):
    from resfluor.cli import main

    assert main(["simulate", "extinction", "--out", str(tmp_path / "sim")]) == 0
    argv = [a.format(sim=tmp_path / "sim") for a in argv] + ["--out", str(tmp_path / "out")]
    assert _loaded_modules(argv) == (0, BASE_MODULES | extra)


def _module_bindings(tree):
    """Names bound at module level: imports (those under an `if
    TYPE_CHECKING:` too), definitions and assignments."""
    names = set()
    for node in tree.body:
        body = node.body if isinstance(node, ast.If) else [node]
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _annotation_names(tree):
    """Names read by the tree's annotations, string ones included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in [*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg, args.kwarg]
                            if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                node = ast.parse(node.value, mode="eval")
            names.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("fname", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_annotations_read_bound_names(fname):
    # typing.get_type_hints and static checkers resolve an annotation in its
    # module's namespace; an import inside the function does not bind there
    tree = _parse(os.path.join(PACKAGE, fname))
    assert _annotation_names(tree) - _module_bindings(tree) - set(dir(builtins)) == set()


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


def _module_level_names(path):
    """Module-level functions, classes and constants."""
    names = set()
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _modules_and_callers():
    """The package's modules, and the files whose calls count as callers:
    those modules (a definition is not a call), tools/, perfbench/ and the
    acceptance criteria."""
    modules = [os.path.join(PACKAGE, f) for f in sorted(os.listdir(PACKAGE))
               if f.endswith(".py") and f != "__init__.py"]
    callers = modules + [os.path.join(ROOT, "tests", "test_acceptance.py")]
    for sub in ("tools", "perfbench"):
        directory = os.path.join(ROOT, sub)
        callers += [os.path.join(directory, f) for f in sorted(os.listdir(directory))
                    if f.endswith(".py")]
    return modules, callers


def test_every_public_name_has_a_caller():
    # a name that only its own unit tests reach is dead API
    modules, callers = _modules_and_callers()
    used = set().union(*map(_referenced_names, callers))
    unused = [f"{os.path.basename(m)}:{name}" for m in modules
              for name in sorted(_module_level_names(m) - used) if not name.startswith("_")]
    assert unused == []


def test_every_private_name_is_read_by_the_package():
    # a module-level private name is an implementation detail: one that no
    # package module reads (a helper kept alive only by its unit tests) is
    # dead code
    modules, _ = _modules_and_callers()
    used = set().union(*map(_referenced_names, modules))
    unread = [f"{os.path.basename(m)}:{name}" for m in modules
              for name in sorted(_module_level_names(m) - used)
              if name.startswith("_") and not name.startswith("__")]
    assert unread == []


def _run_config_reads(path):
    """Attribute names read off a RunConfig in the file: off a
    load_config() call, or off a name that a parameter annotated RunConfig
    or an assignment from load_config() binds."""
    tree = _parse(path)

    def loads_config(node):
        return isinstance(node, ast.Call) and "load_config" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    bound = {a.arg for a in ast.walk(tree) if isinstance(a, ast.arg)
             and a.annotation is not None and ast.unparse(a.annotation) == "RunConfig"}
    bound |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and loads_config(node.value) for t in node.targets if isinstance(t, ast.Name)}
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and (loads_config(node.value)
                 or isinstance(node.value, ast.Name) and node.value.id in bound)}


def test_every_run_config_field_is_read():
    # a field that no command reads is a record of what the config held, kept
    # in step with the checks that build it; config.py itself only builds it
    fields = [node.target.id for cls in _parse(os.path.join(PACKAGE, "config.py")).body
              if isinstance(cls, ast.ClassDef) and cls.name == "RunConfig"
              for node in cls.body if isinstance(node, ast.AnnAssign)]
    _, callers = _modules_and_callers()
    read = set().union(*(_run_config_reads(path) for path in callers
                         if os.path.basename(path) != "config.py"))
    assert [name for name in fields if name not in read] == []


def _defaulted_options(path):
    """(name, {option: position}) of each module-level function, public or
    private, and each public dataclass in the module: its defaulted
    parameters or fields, with the position a call can pass each by (inf
    for a keyword-only one)."""
    for node in _parse(path).body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            options = {name: k for k, name in enumerate(positional)
                       if k >= len(positional) - len(args.defaults)}
            options.update((a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            options = {f.target.id: k for k, f in enumerate(fields) if f.value is not None}
        else:
            continue
        if options and (isinstance(node, ast.FunctionDef) or not node.name.startswith("_")):
            yield node.name, options


def _passed_options(paths):
    """Callee name -> (number of positional arguments, keyword names) that
    some call in the files passes; *args or **kwargs at a call passes them
    all."""
    passed = {}
    for path in paths:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            npos, keywords = passed.get(name, (0, set()))
            npos = max(npos, len(node.args))
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                npos = math.inf
            passed[name] = npos, keywords | {k.arg for k in node.keywords}
    return passed


def test_every_option_is_passed_by_a_caller():
    # an option that no caller passes always takes its default: a setting
    # that changes nothing, kept alive with the checks it needs
    modules, callers = _modules_and_callers()
    passed = _passed_options(callers)
    never = []
    for module in modules:
        for name, options in _defaulted_options(module):
            npos, keywords = passed.get(name, (0, set()))
            never += [f"{os.path.basename(module)}:{name}.{option}"
                      for option, position in options.items()
                      if position >= npos and option not in keywords]
    assert never == []


_FLOAT_RANGE_ERRORS = {"ArithmeticError", "OverflowError", "ZeroDivisionError"}


def _float_range_handlers(path):
    """(function, line) of each except clause in the file that names one of
    _FLOAT_RANGE_ERRORS, alone or in a tuple; the function is the innermost
    one that holds the clause, "<module>" if none does."""
    tree = _parse(path)
    owner = {}
    for func in ast.walk(tree):   # outer functions first: inner ones overwrite
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return [(owner.get(node, "<module>"), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            & _FLOAT_RANGE_ERRORS]


def test_no_float_range_guard_outside_the_last_resort():
    # every configured value is bounded where it enters (physics' domain and
    # the INI schema), so no model or command catches an overflow of its
    # own; cli.main maps whatever escapes to exit 3
    modules, _ = _modules_and_callers()
    guards = [f"{os.path.basename(m)}:{name}:{line}" for m in modules
              for name, line in _float_range_handlers(m)]
    assert [g for g in guards if not g.startswith("cli.py:main:")] == []
    assert len(guards) == 1
