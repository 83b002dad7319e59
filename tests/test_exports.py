"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import copulabn

MODULES = [copulabn] + [
    importlib.import_module(f"copulabn.{info.name}") for info in pkgutil.iter_modules(copulabn.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
