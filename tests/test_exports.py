"""Export lists: every name a module lists in __all__ must exist."""

import importlib
import pkgutil

import pytest

import logitcp

MODULES = ["logitcp"] + [
    f"logitcp.{info.name}" for info in pkgutil.iter_modules(logitcp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [a for a in exported if not hasattr(module, a)] == []
