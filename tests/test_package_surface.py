"""The package surface: every exported name exists and no import lies unused."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qschub

MODULES = ["qschub"] + [
    f"qschub.{info.name}" for info in pkgutil.iter_modules(qschub.__path__)
]


def imported_names(tree):
    """(bound name, line) for every import at the top level of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), alias.lineno


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_exported_or_marked(name):
    module = importlib.import_module(name)
    source = inspect.getsource(module)
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(module, "__all__", ()))
    unused = [
        imported
        for imported, line in imported_names(tree)
        if imported not in used | exported and "# noqa: F401" not in lines[line - 1]
    ]
    assert not unused, unused
