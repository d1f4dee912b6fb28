"""Public surface: every error type is raised somewhere, every export
resolves, every function the traced benchmark names exists, and the
import loads neither scipy nor multiprocessing."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import snowdim
from snowdim import errors

SRC = Path(snowdim.__file__).parent


def raised_names() -> set:
    """Names of the exception classes in ``raise`` statements of the
    package sources."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    subclasses = {name for name, obj in vars(errors).items()
                  if inspect.isclass(obj)
                  and issubclass(obj, errors.SnowdimError)
                  and obj is not errors.SnowdimError}
    assert subclasses
    assert subclasses - raised_names() == set()


def test_every_export_resolves():
    missing = [name for name in snowdim.__all__
               if not hasattr(snowdim, name)]
    assert missing == []
    assert len(set(snowdim.__all__)) == len(snowdim.__all__)


def module_definitions(tree: ast.Module):
    """Private functions and classes, and UPPER_CASE constants, defined at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id


def test_no_dead_private_definitions():
    # a helper or constant nothing in the package reads is left-over code
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, name) for name in module_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert [f"{mod}:{name}" for mod, name in defined if name not in used] \
        == []


def imported_names(tree: ast.Module):
    """The names a module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    # a name a module imports and never reads is left over from code that
    # went; the package's __init__ imports to export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{name}" for name in imported_names(tree)
                   if name not in read]
    assert unused == []


def test_every_function_the_traced_benchmark_names_exists():
    # the traced bench reports a time and a call count per function that
    # BENCHMARK.json names; removing one of them breaks that run
    spec = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls"):
            named.add((parts[0], parts[1]))
    assert named
    missing = []
    for layer, name in sorted(named):
        mod = importlib.import_module(f"snowdim.{layer}")
        obj = getattr(mod, name, None)
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            missing.append(f"{layer}.{name}")
    assert missing == []


def modules_after_import(prefix: str) -> list[str]:
    """The modules named ``prefix`` or ``prefix.*`` that a fresh
    interpreter holds after ``import snowdim``; fresh, since this one has
    scipy and multiprocessing loaded."""
    path = os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    code = (f"import json, sys, snowdim; print(json.dumps(sorted(m for m in "
            f"sys.modules if m == {prefix!r} or m.startswith({prefix!r} + "
            f"'.'))))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_import_loads_no_scipy():
    # only the extension (kirszbraun_extend) uses scipy, and imports it
    # when called
    assert modules_after_import("scipy") == []


def test_import_loads_no_multiprocessing():
    # the scale split imports multiprocessing when a build forks helpers
    assert modules_after_import("multiprocessing") == []
