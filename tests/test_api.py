"""The package's export list matches what it binds, so a deleted class or
function cannot leave a stale name behind, every private module-level
name is read somewhere in the package, so no dead helper stays behind,
and the package imports nothing but the standard library and numpy."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import sqdecomp

PACKAGE_DIR = Path(sqdecomp.__file__).parent


def test_every_exported_name_resolves():
    for name in sqdecomp.__all__:
        assert hasattr(sqdecomp, name), name


def test_exports_are_sorted_without_repeats():
    assert list(sqdecomp.__all__) == sorted(set(sqdecomp.__all__))


def test_exports_are_exactly_the_public_names():
    public = {
        name
        for name, value in vars(sqdecomp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sqdecomp.__all__) == public


def test_every_private_module_name_is_read_in_the_package():
    """A module-level private name (function, class or constant) that no
    code in the package reads is a dead helper. Reads are loaded names,
    attributes and imports anywhere under ``src/sqdecomp``; tests and demos
    do not count."""
    trees = {
        path.relative_to(PACKAGE_DIR).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined |= {(module, n) for n in names if n.startswith("_") and not n.startswith("__")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert len(defined) > 50
    assert sorted(f"{module}:{name}" for module, name in defined if name not in read) == []


def test_package_imports_only_the_standard_library_and_numpy():
    """Every import in ``src/sqdecomp``, function bodies included, names a
    standard-library module, numpy or the package itself, and a fresh
    interpreter that imports the package has loaded no scipy module."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "sqdecomp"}
    foreign = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {m}" for m in modules
                        if m.split(".")[0] not in allowed]
    assert foreign == []
    paths = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqdecomp; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert probe.stdout.strip() == "[]"
