"""The perfbench tracer installs over the package as it is: every callable
it wraps resolves and is wrapped under every name that binds it, a traced
fit of either model kind records the layers it runs through, and
uninstalling restores every binding.  A refactor that drops or renames a
traced callable, or stops calling it, fails here rather than in a
``--trace 1`` run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np

import copulabn
from copulabn.data import MaskedDataset, apply_missing_mask
from copulabn.structure import SearchConfig

from conftest import chain_scores, cycle_warps, warp_columns

MODULES = [copulabn] + [
    importlib.import_module(f"copulabn.{info.name}") for info in pkgutil.iter_modules(copulabn.__path__)
]


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _bindings():
    """Every name of every package module, and every class attribute."""
    found = {}
    for module in MODULES:
        for name, value in vars(module).items():
            found[module.__name__, name] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found[module.__name__, f"{name}.{attr}"] = member
    return found


def test_tracer_wraps_every_target_and_restores_the_package():
    spans = _spans()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module_name, path, _, _ in spans.TRACED:
            original = before[module_name, path]
            wrapped = _bindings()[module_name, path]
            assert wrapped is not original and wrapped.__wrapped__ is original, path
            # Every other name bound to a traced function is wrapped too.
            # Bindings compare by identity: `in` would compare a module's
            # arrays elementwise.
            if "." not in path:
                assert not any(value is original for value in _bindings().values()), path
        rng = np.random.default_rng(0)
        x = warp_columns(chain_scores(0.6, 4, 200, rng), cycle_warps(4))
        data = apply_missing_mask(MaskedDataset.from_values(x), 0.2, seed=1)
        cbn = copulabn.benchmark.fit_model(data, "cbn", SearchConfig(max_parents=2))
        copulabn.benchmark.fit_model(data, "lgbn", SearchConfig(max_parents=2))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    recorded = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    assert {
        "benchmark.fit_model", "cbn.fit_missing", "copula.rho_fit",
        "gaussian_bn.family_ll_from_moments", "gaussian_bn.expected_moments",
        "gaussian_bn.em_fit_lg",
    } <= set(recorded)
    # Every rho fit runs through FamilyStats.fit, the search's batches too, so
    # the cbn fit records more rho-fit spans than its model has families.
    assert recorded.count("copula.rho_fit") > len(cbn.families())
