"""The package's names: ``__all__`` and what ``__init__`` binds agree,
every module uses what it imports, and every private helper is read."""

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


def _private_definitions(node):
    """The ``_name`` functions, classes and constants a top-level statement
    defines (dunder names aside)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(node):
    """The names a statement reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_private_helper_is_read_in_the_package():
    # a helper that only the tests read does not belong in the package
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_reads(node) for node in statements]
    defined = [(name, k) for k, node in enumerate(statements) for name in _private_definitions(node)]
    unread = [name for name, k in defined
              if not any(name in names for i, names in enumerate(reads) if i != k)]
    assert len(defined) > 40 and not unread, unread
