"""The package's names: ``__all__`` and what ``__init__`` binds agree, and
every module uses what it imports."""

import ast
import pathlib
import types

import pytest

import dts_ldpc

PACKAGE = pathlib.Path(dts_ldpc.__file__).parent


def test_all_names_resolve_once():
    assert all(hasattr(dts_ldpc, name) for name in dts_ldpc.__all__)
    assert len(set(dts_ldpc.__all__)) == len(dts_ldpc.__all__)


def test_every_public_binding_is_exported():
    public = {name for name, value in vars(dts_ldpc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(dts_ldpc.__all__), public - set(dts_ldpc.__all__)


def _imported_and_used(path):
    """The names a module imports (``from __future__`` aside) and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


# __init__ imports in order to re-export
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    imported, used = _imported_and_used(path)
    assert imported <= used, sorted(imported - used)
