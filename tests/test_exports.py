"""Export lists: every name a module lists in __all__ must exist."""

import importlib
import inspect
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


def test_package_functions_are_in_their_module_all():
    # the benchmark tracer wraps each layer's __all__, so a function the
    # package exports but its module does not would go untimed
    missing = []
    for name in logitcp.__all__:
        obj = getattr(logitcp, name)
        if inspect.isfunction(obj) and name not in importlib.import_module(obj.__module__).__all__:
            missing.append(f"{obj.__module__}.{name}")
    assert missing == []
