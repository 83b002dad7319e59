"""The script that summarises paired perfbench records as BENCH_<PR>.json."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_METRICS = {"cbn_fit_s": "lower", "sample_rows_per_s": "higher"}


def _record(commit, fit_s, rows_per_s, digests, correct=True, failed=0, workload="sample"):
    """A perfbench record with only the fields the script reads."""
    return {
        "workload": workload,
        "seed": 1,
        "seconds": 40,
        "trace": 0,
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                        "nproc": 2, "blas_threads": 1, "git_commit": commit},
        "end_to_end": {"cbn_fit_s": {"value": fit_s, "unit": "s"},
                       "sample_rows_per_s": {"value": rows_per_s, "unit": "rows/s"}},
        "correct": correct,
        "commands_failed": failed,
        "digests": digests,
    }


def test_summary_of_two_hand_made_pairs(tmp_path, monkeypatch):
    parent = [_record("p", 0.30, 100.0, {"cbn.json": "a", "sample.csv": "s"}),
              _record("p", 0.50, 120.0, {"cbn.json": "a", "sample.csv": "s"})]
    change = [_record("c", 0.20, 90.0, {"cbn.json": "a", "sample.csv": "t"}),
              _record("c", 0.50, 130.0, {"cbn.json": "a", "sample.csv": "t"}, failed=1)]
    paths = {}
    for side, records in (("parent", parent), ("change", change)):
        paths[side] = []
        for i, record in enumerate(records):
            paths[side].append(str(tmp_path / f"{side}{i}.json"))
            Path(paths[side][-1]).write_text(json.dumps(record))
    # The script reads BENCHMARK.json from the repository root.
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": n, "better": b} for n, b in _METRICS.items()]}))
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--title", "t", "--parent", *paths["parent"],
                              "--change", *paths["change"], "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pr"] == 7 and doc["commits"] == {"parent": "p", "change": "c"}
    assert doc["benchmark"] == "perfbench/run.py --workload W --seed S --seconds 40 --trace 0"
    assert doc["machine"]["nproc"] == 2
    (entry,) = doc["workloads"]
    assert (entry["workload"], entry["seed"], entry["pairs"]) == ("sample", 1, 2)
    fit = entry["sides"]["parent"]["cbn_fit_s"]
    assert [fit["q1"], fit["median"], fit["q3"]] == pytest.approx([0.35, 0.40, 0.45])
    assert entry["sides"]["change"]["sample_rows_per_s"]["median"] == pytest.approx(110.0)
    # The change wins the first pair's fit and the second's sampling; the
    # second pair's fit time is a tie, which counts for neither side.
    assert entry["change_wins"] == {"cbn_fit_s": 1, "sample_rows_per_s": 1}
    assert entry["all_correct"] is True and entry["commands_failed"] == 1
    assert entry["digests_equal_to_parent"] == {"cbn.json": True, "sample.csv": False}


def test_pairs_must_match_and_missing_files_differ():
    p = _record("p", 0.3, 100.0, {"cbn.json": "a", "sample.csv": "s"})
    c = _record("c", math.nan, 100.0, {"cbn.json": "a"}, correct=False)
    (entry,) = bench_record.summarise([p], [c], _METRICS, 1, "t")["workloads"]
    assert entry["change_wins"] == {"cbn_fit_s": 0, "sample_rows_per_s": 0}
    assert entry["all_correct"] is False
    assert entry["digests_equal_to_parent"] == {"cbn.json": True, "sample.csv": False}
    with pytest.raises(ValueError, match="mixes runs"):
        bench_record.summarise([p], [_record("c", 0.3, 1.0, {}, workload="wide-missing")],
                               _METRICS, 1, "t")
    with pytest.raises(ValueError, match="1 parent records for 2 change records"):
        bench_record.summarise([p], [c, c], _METRICS, 1, "t")
