"""The public surface: every name a module exports in ``__all__`` exists,
and every name a module imports is read or exported, so deleting a
function cannot leave a stale export or import behind."""
import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(source: str) -> list:
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(
    Path(lqconic.__path__[0]).glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("import numpy as np\nfrom .model import coeff_on, validate\n"
              "__all__ = ['validate']\n")
    assert _unused_imports(source) == ["coeff_on (line 2)", "np (line 1)"]
