#!/usr/bin/env python3
"""Compare the outputs of two copies of the package on perfbench's tables.

    python3 scripts/output_moves.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3] \\
        [--workloads tall-complete wide-missing sample]

Each ``*_SRC`` is a directory holding the ``copulabn`` package, such as the
``src`` directory of a checkout.  For each workload and seed the script
writes the training and held-out tables of ``perfbench/workloads.py``, and
each side runs the command line on them with perfbench's flags: ``fit`` and
``eval`` for both model kinds, then ``sample`` from the cbn model.  Each
side runs in its own subprocess, with one BLAS thread, in a temporary
directory of its own.

Per output it prints ``identical``, or what moved: for a model file the
edges its DAG gains and loses, and for every output the largest absolute
and relative move of its numbers.  It exits 1 when a side's command fails.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_tables, write_table  # noqa: E402

MAX_PARENTS = "2"
OUTPUTS = ("cbn.json", "lgbn.json", "cbn.scores.csv", "lgbn.scores.csv", "sample.csv")

# Runs each argv of a JSON list through the command line, in order.
_CHILD = """
import json, sys
from copulabn.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"copulabn {' '.join(argv)} exited {code}")
"""


def commands(workload, seed, tables, out):
    """The argv of each command of one job, as perfbench runs them."""
    mask = []
    if workload.missing_fraction > 0.0:
        mask = ["--missing-fraction", repr(workload.missing_fraction), "--seed", str(seed)]
    argvs = []
    for kind in ("cbn", "lgbn"):
        model = str(out / f"{kind}.json")
        argvs.append(["fit", "--data", str(tables / "train.csv"), "--model", kind,
                      "--max-parents", MAX_PARENTS, *mask, "--out", model])
        argvs.append(["eval", "--model-file", model, "--data", str(tables / "heldout.csv"), *mask,
                      "--out", str(out / f"{kind}.scores.csv")])
    argvs.append(["sample", "--model-file", str(out / "cbn.json"), "--count", str(workload.sample_count),
                  "--seed", str(seed), "--out", str(out / "sample.csv")])
    return argvs


def run_side(src, jobs):
    """Run every job's commands in one subprocess that imports ``src``."""
    argvs = [argv for job in jobs for argv in job]
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True)


def _numbers(value):
    """Every number of a JSON value, in document order; booleans are not numbers."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in _numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in _numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def read_output(path):
    """(DAG edges or None, numbers) of one output file."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        edges = {(p, child) for child, parents in enumerate(doc["parents"]) for p in parents}
        return edges, _numbers({k: v for k, v in doc.items() if k != "parents"})
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return None, [float(cell) for row in rows for cell in row]


def _move(a, b):
    """(absolute, relative) move from ``a`` to ``b``: 0 where both are the
    same float or both NaN, inf where only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / max(abs(a), abs(b))


def describe(parent, change):
    """One line on how output file ``change`` differs from ``parent``."""
    if parent.read_bytes() == change.read_bytes():
        return "identical"
    (edges_p, nums_p), (edges_c, nums_c) = read_output(parent), read_output(change)
    parts = []
    if edges_p is not None:
        gained = ", ".join(f"{p}->{c}" for p, c in sorted(edges_c - edges_p)) or "none"
        lost = ", ".join(f"{p}->{c}" for p, c in sorted(edges_p - edges_c)) or "none"
        parts.append("same DAG" if edges_p == edges_c else f"DAG gains {gained}; loses {lost}")
    if len(nums_p) != len(nums_c):
        parts.append(f"{len(nums_p)} numbers became {len(nums_c)}")
    else:
        moves = [_move(a, b) for a, b in zip(nums_p, nums_c)]
        parts.append(f"largest move {max(m[0] for m in moves):.3g} absolute, "
                     f"{max(m[1] for m in moves):.3g} relative")
    return "; ".join(parts)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_src", help="directory holding the parent's copulabn package")
    p.add_argument("change_src", help="directory holding the change's copulabn package")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [(WORKLOADS[name], seed) for name in args.workloads for seed in args.seeds]
        for workload, seed in runs:
            tables = tmp / "tables" / f"{workload.name}-{seed}"
            tables.mkdir(parents=True)
            train, heldout, _ = make_tables(workload, seed)
            write_table(tables / "train.csv", train)
            write_table(tables / "heldout.csv", heldout)
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            jobs = []
            for workload, seed in runs:
                out = tmp / side / f"{workload.name}-{seed}"
                out.mkdir(parents=True)
                jobs.append(commands(workload, seed, tmp / "tables" / f"{workload.name}-{seed}", out))
            done = run_side(src, jobs)
            if done.returncode:
                print(f"{side} ({src}) failed: {done.stderr.strip()}", file=sys.stderr)
                return 1
        for workload, seed in runs:
            job = f"{workload.name}-{seed}"
            for name in OUTPUTS:
                line = describe(tmp / "parent" / job / name, tmp / "change" / job / name)
                print(f"{workload.name} seed {seed} {name}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
