"""The package's public names: ``__all__`` and what ``__init__`` binds agree."""

import types

import dts_ldpc


def test_all_names_resolve_once():
    assert all(hasattr(dts_ldpc, name) for name in dts_ldpc.__all__)
    assert len(set(dts_ldpc.__all__)) == len(dts_ldpc.__all__)


def test_every_public_binding_is_exported():
    public = {name for name, value in vars(dts_ldpc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(dts_ldpc.__all__), public - set(dts_ldpc.__all__)
