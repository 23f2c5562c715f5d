"""Export lists: every name a module lists in __all__ must exist, and the
package namespace holds nothing but its submodules."""

import importlib
import pkgutil
import sys

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


def test_package_namespace_holds_only_submodules():
    # each module's __all__ is the one list of its public names (and what
    # the benchmark tracer wraps); a name re-exported by the package would
    # declare it a second time
    public = {n for n in vars(logitcp) if not n.startswith("_")}
    assert {"decomp", "fileio", "likelihood", "metrics", "ops", "selection", "simulate"} <= public
    assert sorted(n for n in public if getattr(logitcp, n) is not sys.modules.get(f"logitcp.{n}")) == []
    assert logitcp.__version__ == "0.1.0"
