"""Benchmark harness: the split/mask/fit/score grid.

For every (model kind, parent cap, missing fraction, split) cell the
harness masks the training half, learns structure and parameters, and
scores train and test sets by average log-probability per instance —
the copula model by its exact density on complete rows and its likelihood
bound on rows with hidden cells, the linear-Gaussian baseline by its exact
observed-coordinate marginal.

Results go to a CSV whose bytes are a pure function of the inputs and base
seed; wall-clock timings and environment info go to a JSON manifest
sidecar next to it (the one deliberately non-deterministic output).
"""

import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cbn import CbnModel, lower_bound_rows
from .data import (
    SEED_TAG_MASK_TEST,
    SEED_TAG_MASK_TRAIN,
    apply_missing_mask,
    derive_seed,
    load_csv,
    make_split,
)
from .errors import CopulaBnError, InvalidInputError
from .gaussian_bn import log_marginal_lg_rows
from .structure import SearchConfig, _learn

__all__ = [
    "BenchmarkRow",
    "BenchmarkAggregate",
    "BenchmarkResult",
    "run_benchmark",
    "fit_model",
    "score_rows",
    "mask_seed_for",
]

MODEL_KINDS = ("cbn", "lgbn")


@dataclass(frozen=True)
class BenchmarkRow:
    """One grid cell on one split; scores are per-instance averages."""

    model_kind: str
    max_parents: int
    missing_fraction: float
    split_index: int
    train_score: float
    test_score: float
    base_seed: int
    mask_seed_train: int
    mask_seed_test: int
    wall_seconds: float


@dataclass(frozen=True)
class BenchmarkAggregate:
    """Across-split mean and 10-90 percentile range for one configuration."""

    model_kind: str
    max_parents: int
    missing_fraction: float
    train_mean: float
    train_p10: float
    train_p90: float
    test_mean: float
    test_p10: float
    test_p90: float


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple
    aggregates: tuple

    def csv_text(self):
        """Deterministic CSV: per-split rows then aggregate rows."""
        lines = [
            "row_kind,model_kind,max_parents,missing_fraction,split_index,"
            "train_score,test_score,train_p10,train_p90,test_p10,test_p90,"
            "base_seed,mask_seed_train,mask_seed_test"
        ]
        for r in self.rows:
            lines.append(
                f"split,{r.model_kind},{r.max_parents},{_fmt(r.missing_fraction)},{r.split_index},"
                f"{_fmt(r.train_score)},{_fmt(r.test_score)},,,,,"
                f"{r.base_seed},{r.mask_seed_train},{r.mask_seed_test}"
            )
        for a in self.aggregates:
            lines.append(
                f"aggregate,{a.model_kind},{a.max_parents},{_fmt(a.missing_fraction)},,"
                f"{_fmt(a.train_mean)},{_fmt(a.test_mean)},{_fmt(a.train_p10)},{_fmt(a.train_p90)},"
                f"{_fmt(a.test_p10)},{_fmt(a.test_p90)},,,"
            )
        return "\n".join(lines) + "\n"

    def aggregate_for(self, model_kind, max_parents, missing_fraction):
        for a in self.aggregates:
            if (
                a.model_kind == model_kind
                and a.max_parents == max_parents
                and a.missing_fraction == missing_fraction
            ):
                return a
        raise KeyError((model_kind, max_parents, missing_fraction))


def _fmt(x):
    return repr(float(x))


def mask_seed_for(base_seed, split_index, missing_fraction, role):
    """Deterministic per-(split, role, fraction) mask seed."""
    if role == "train":
        tag = SEED_TAG_MASK_TRAIN
    elif role == "test":
        tag = SEED_TAG_MASK_TEST
    else:
        raise InvalidInputError(f"role must be 'train' or 'test', got {role!r}")
    return derive_seed(base_seed, tag, split_index, int(round(missing_fraction * 1_000_000)))


def fit_model(train, model_kind, config):
    """The model greedy_search's structural-EM loop fits on the (masked) training half."""
    return _learn(train, config, model_kind)[1]


def score_rows(model, data):
    """Per-instance scores under either model kind."""
    if isinstance(model, CbnModel):
        return lower_bound_rows(model, data)
    return log_marginal_lg_rows(model, data)


def _masked_split(data, protocol, split_index, missing_fraction):
    """Split ``split_index``'s train and test halves, masked as the protocol's
    ``mask_scope`` says, and the train and test mask seeds."""
    train, test = make_split(data, protocol, split_index)
    seed_train = mask_seed_for(protocol.base_seed, split_index, missing_fraction, "train")
    seed_test = mask_seed_for(protocol.base_seed, split_index, missing_fraction, "test")
    train = apply_missing_mask(train, missing_fraction, seed_train)
    if protocol.mask_scope == "train_and_test":
        test = apply_missing_mask(test, missing_fraction, seed_test)
    return train, test, seed_train, seed_test


def _run_cell(data, protocol, model_kind, max_parents, missing_fraction, split_index):
    started = time.time()
    train, test, seed_train, seed_test = _masked_split(
        data, protocol, split_index, missing_fraction
    )
    model = fit_model(train, model_kind, SearchConfig(max_parents=max_parents))
    return BenchmarkRow(
        model_kind=model_kind,
        max_parents=max_parents,
        missing_fraction=missing_fraction,
        split_index=split_index,
        train_score=float(score_rows(model, train).mean()),
        test_score=float(score_rows(model, test).mean()),
        base_seed=protocol.base_seed,
        mask_seed_train=seed_train,
        mask_seed_test=seed_test,
        wall_seconds=time.time() - started,
    )


def _aggregate(cell_rows):
    """Across-split aggregate of one configuration's rows."""
    first = cell_rows[0]
    train = np.array([r.train_score for r in cell_rows])
    test = np.array([r.test_score for r in cell_rows])
    return BenchmarkAggregate(
        model_kind=first.model_kind,
        max_parents=first.max_parents,
        missing_fraction=first.missing_fraction,
        train_mean=float(train.mean()),
        train_p10=float(np.percentile(train, 10)),
        train_p90=float(np.percentile(train, 90)),
        test_mean=float(test.mean()),
        test_p10=float(np.percentile(test, 10)),
        test_p90=float(np.percentile(test, 90)),
    )


def run_benchmark(
    dataset_path,
    protocol,
    model_kinds,
    max_parents_list,
    missing_fractions,
    output_path,
):
    """Run the full grid and write CSV + manifest.

    Rows are produced in canonical order (model kind, parent cap, missing
    fraction, split); the CSV is byte-identical across reruns with the same
    inputs and seed.  A value repeated in a grid list (``InvalidInputError``)
    or a cap ``SearchConfig`` rejects (``ValidationError``) raises before any
    cell runs.  On a failing cell, the split rows finished so far are flushed
    to ``output_path`` before the error propagates.  A package, arithmetic or
    value error is re-raised as the same type with the cell named in its message.
    """
    model_kinds = tuple(model_kinds)
    max_parents_list = tuple(SearchConfig(max_parents=k).max_parents for k in max_parents_list)
    missing_fractions = tuple(float(p) + 0.0 for p in missing_fractions)  # -0.0 reads as 0.0
    if not model_kinds or not max_parents_list or not missing_fractions:
        raise InvalidInputError("benchmark grids must be non-empty")
    for kind in model_kinds:
        if kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {kind!r}")
    for name, values in (
        ("model kinds", model_kinds),
        ("max_parents", max_parents_list),
        ("missing fractions", missing_fractions),
    ):
        if len(set(values)) != len(values):
            raise InvalidInputError(
                f"benchmark grid repeats a value in its {name}: {list(values)}"
            )

    data = load_csv(dataset_path)
    rows = []
    aggregates = []
    started = time.time()
    try:
        for model_kind in model_kinds:
            for max_parents in max_parents_list:
                for p in missing_fractions:
                    for split_index in range(protocol.num_splits):
                        try:
                            rows.append(
                                _run_cell(data, protocol, model_kind, max_parents, p, split_index)
                            )
                        except (CopulaBnError, ArithmeticError, ValueError) as e:
                            raise type(e)(
                                f"benchmark cell failed (model={model_kind}, "
                                f"max_parents={max_parents}, missing_fraction={p}, "
                                f"split={split_index}): {e}"
                            ) from e
                    aggregates.append(_aggregate(rows[-protocol.num_splits:]))
    except Exception:
        if output_path is not None and rows:
            partial = BenchmarkResult(rows=tuple(rows), aggregates=())
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(partial.csv_text())
        raise

    result = BenchmarkResult(rows=tuple(rows), aggregates=tuple(aggregates))

    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(result.csv_text())
        manifest = {
            "dataset": str(dataset_path),
            "package_version": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "protocol": {
                "num_splits": protocol.num_splits,
                "base_seed": protocol.base_seed,
                "mask_scope": protocol.mask_scope,
            },
            "grid": {
                "model_kinds": list(model_kinds),
                "max_parents_list": list(max_parents_list),
                "missing_fractions": list(missing_fractions),
            },
            "note": "timings are wall-clock and vary between runs; the CSV is deterministic",
            "cell_wall_seconds": [r.wall_seconds for r in rows],
            "total_wall_seconds": time.time() - started,
        }
        with open(str(output_path) + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return result
