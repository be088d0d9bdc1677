"""The public surface: every name a module exports in ``__all__`` exists,
so deleting a function cannot leave a stale export behind."""
import importlib
import pkgutil

import pytest

import lqconic

MODULES = ["lqconic"] + [f"lqconic.{m.name}"
                         for m in pkgutil.iter_modules(lqconic.__path__)]


@pytest.mark.parametrize("modname", MODULES)
def test_every_export_resolves(modname):
    module = importlib.import_module(modname)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
