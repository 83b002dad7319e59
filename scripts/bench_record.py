#!/usr/bin/env python3
"""Summarise alternating-pair perfbench runs as a ``BENCH_<PR>.json`` file.

Each run of ``perfbench/run.py`` writes a record JSON to ``.perfbench_out/``;
copy it aside after every run.  Give this script the parent's records and the
change's records in pair order (the i-th parent record is paired with the
i-th change record; both must be of the same workload, seed and trace setting):

    python3 scripts/bench_record.py --pr 21 --title "..." \\
        --parent p1.json p2.json ... --change c1.json c2.json ... \\
        --out BENCH_21.json

Per workload, seed and trace setting it writes each end-to-end metric's
median and quartiles (numpy linear percentiles) per side, and for each timed
metric (the commands' and set-up's) the same of its unscaled value, the
record's ``raw_timings`` and ``raw_setup_s``, under ``raw``; the pairs the
change won (ties count for neither), whether every run of both sides was
correct, the commands that failed on both sides, and which output digests
equal the parent's.  Pairs of traced runs (``--trace 1``) form groups of
their own, which also hold each side's median of every per-layer metric.
Metric names and their better direction are read from ``BENCHMARK.json``.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

METHOD = (
    "Alternating pairs of runs of the parent and the change, each on its own checkout with "
    "identical perfbench files; the side that runs first alternates by pair. Per workload, "
    "seed and trace setting: each end-to-end metric's median and quartiles (numpy linear "
    "percentiles) over the runs of each side, next to the same of the unscaled time under "
    "'raw' for each timed metric, and the pairs the change won (ties count for neither); "
    "traced groups add each per-layer metric's median per side."
)


def _load(paths):
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def _spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def _side(values, raws):
    """Each metric's spread over one side's runs, with the spread of its
    unscaled values under ``raw`` when it is timed."""
    out = {}
    for m, v in values.items():
        out[m] = _spread(v)
        if m in raws[0]:
            out[m]["raw"] = _spread([r[m] for r in raws])
    return out


def _commit(records):
    commits = sorted({str(r["environment"].get("git_commit")) for r in records})
    return commits[0] if len(commits) == 1 else commits


def summarise(parent, change, metrics, pr, title, layers=()):
    """The ``BENCH_<PR>.json`` document of paired records.

    ``metrics`` maps each end-to-end metric name to ``"higher"`` or
    ``"lower"``, the direction in which it is better.  ``layers`` names the
    per-layer metrics whose medians a traced group reports.
    """
    if not parent or len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent records for {len(change)} change records")
    groups = {}
    for p, c in zip(parent, change):
        key = (p["workload"], p["seed"], p["trace"])
        if (c["workload"], c["seed"], c["trace"]) != key or p["seconds"] != c["seconds"]:
            raise ValueError(f"a pair mixes runs: {key} against {(c['workload'], c['seed'], c['trace'])}")
        groups.setdefault(key, []).append((p, c))
    env = parent[0]["environment"]
    workloads = []
    for (workload, seed, trace), pairs in groups.items():
        sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
        value = {side: {m: [r["end_to_end"][m]["value"] for r in runs] for m in metrics}
                 for side, runs in sides.items()}
        raw = {side: [{**r["raw_timings"], "setup_s": r["raw_setup_s"]} for r in runs]
               for side, runs in sides.items()}
        wins = {m: sum((c > p) if better == "higher" else (c < p)
                       for p, c in zip(value["parent"][m], value["change"][m]))
                for m, better in metrics.items()}
        runs = sides["parent"] + sides["change"]
        names = sorted({n for r in runs for n in r["digests"]})
        entry = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "pairs": len(pairs),
            "sides": {side: _side(value[side], raw[side]) for side in sides},
            "change_wins": wins,
            "all_correct": all(r["correct"] for r in runs),
            "commands_failed": sum(r["commands_failed"] for r in runs),
            # True when every run of both sides wrote the file, all with one digest.
            "digests_equal_to_parent": {
                n: len({r["digests"].get(n) for r in runs}) == 1 for n in names
            },
        }
        if trace:
            entry["per_layer"] = {
                side: {n: float(np.median([r["per_layer"][n]["value"] for r in rs])) for n in layers}
                for side, rs in sides.items()
            }
        workloads.append(entry)
    traces = {p["trace"] for p in parent}
    trace = traces.pop() if len(traces) == 1 else "T"  # T: each group's own
    return {
        "pr": pr,
        "title": title,
        "benchmark": (f"perfbench/run.py --workload W --seed S --seconds {parent[0]['seconds']:g}"
                      f" --trace {trace}"),
        "method": METHOD,
        "machine": {k: env.get(k) for k in ("python", "numpy", "scipy", "nproc", "blas_threads")},
        "commits": {"parent": _commit(parent), "change": _commit(change)},
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number of the change")
    parser.add_argument("--title", required=True, help="title of the change")
    parser.add_argument("--parent", nargs="+", required=True, help="parent records, pair order")
    parser.add_argument("--change", nargs="+", required=True, help="change records, pair order")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    layers = [m["name"] for m in benchmark.get("per_layer", [])]
    doc = summarise(_load(args.parent), _load(args.change), metrics, args.pr, args.title, layers)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
