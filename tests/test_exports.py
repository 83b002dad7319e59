"""Every name a module exports through ``__all__`` resolves, and so does
every name the perfbench tracer wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import copulabn

MODULES = [copulabn] + [
    importlib.import_module(f"copulabn.{info.name}") for info in pkgutil.iter_modules(copulabn.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


def _traced_names():
    """(module, attribute path) of every callable the perfbench tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TRACED]


@pytest.mark.parametrize("module_name, path", _traced_names(), ids=lambda v: v)
def test_every_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # The tracer patches methods through the class dict, functions by value.
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))
