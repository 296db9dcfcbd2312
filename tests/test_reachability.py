"""Every module under ``src/repro`` is reached by the running system.

Walks the static import graph (``import``/``from ... import`` anywhere
in a file, function bodies included) from the entry points: the
``python -m repro`` CLI, the streaming gateway, every registered
experiment's implementing module (the registry imports those lazily by
name), and the scripts under ``examples/``, ``benchmarks/`` and
``perfbench/``.  A module only its own tests import is dead code.
"""

from __future__ import annotations

import ast
import pathlib

from repro.experiments import registry

_REPO = pathlib.Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
_SCRIPT_DIRS = ("examples", "benchmarks", "perfbench")


def _module_files() -> dict[str, pathlib.Path]:
    """Dotted name -> file for every module of the ``repro`` package."""
    modules = {}
    for path in (_SRC / "repro").rglob("*.py"):
        parts = path.relative_to(_SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: pathlib.Path) -> set[str]:
    """Dotted names a file imports, plus ``pkg.attr`` for ``from`` imports
    (the attribute may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _reached(roots: set[str], modules: dict[str, pathlib.Path]) -> set[str]:
    """Modules reached from ``roots``; importing ``a.b.c`` runs ``a`` and
    ``a.b`` too."""
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                todo.extend(_imported_names(modules[prefix]))
    return seen


def test_every_repro_module_is_reached() -> None:
    modules = _module_files()
    roots = {"repro.__main__", "repro.cli", "repro.gateway"}
    roots.update(spec.module for spec in registry.specs())
    for directory in _SCRIPT_DIRS:
        for script in (_REPO / directory).rglob("*.py"):
            if "tests" not in script.relative_to(_REPO).parts:
                roots.update(_imported_names(script))
    unreached = sorted(set(modules) - _reached(roots, modules))
    assert not unreached, f"modules nothing but tests import: {unreached}"
