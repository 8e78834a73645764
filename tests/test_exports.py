"""Every name a ``caputo_lk`` module exports must exist, so a deletion
that leaves a stale ``__all__`` entry fails here; and every name a module
imports must be read there, so a deletion that leaves its import behind
fails too."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import caputo_lk

MODULES = ["caputo_lk"] + [
    f"caputo_lk.{info.name}" for info in pkgutil.iter_modules(caputo_lk.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# Imports a module keeps without reading them, each with its reason.
_KEPT_IMPORTS = {
    ("caputo_lk.schemes", "build_interpolant"): "perfbench/spans.py patches it by this name",
}


def unread_imports(source: str, exported) -> set[str]:
    """Names the source imports (``__future__`` aside) but never reads,
    less the exported ones."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read - set(exported)


@pytest.mark.parametrize("module_name", MODULES)
def test_imports_are_read(module_name):
    module = importlib.import_module(module_name)
    kept = {name for owner, name in _KEPT_IMPORTS if owner == module_name}
    assert unread_imports(inspect.getsource(module), module.__all__) == kept
