"""Every name a ``caputo_lk`` module exports must exist, so a deletion
that leaves a stale ``__all__`` entry fails here."""

from __future__ import annotations

import importlib
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
