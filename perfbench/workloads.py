"""Workload definitions and the seeded warped-chain tables they run on.

The table generator mirrors ``chain_scores``, ``warp_columns`` and
``cycle_warps`` in ``tests/conftest.py``: normal scores from a first-order
chain, then a strictly monotone warp per column, so the copula model is well
specified and a joint Gaussian is not.  It is copied rather than imported so
that edits to the test fixtures never change the benchmark's inputs.
"""

import csv
from dataclasses import dataclass

import numpy as np

CHAIN_RHO = 0.6

# One held-out row in OUTLIER_EVERY gets one cell OUTLIER_SD training
# standard deviations past that column's training maximum.  At this distance
# every kernel term of the KDE pdf underflows, so the row exposes the
# marginal's -inf failure mode instead of a finite score.
OUTLIER_EVERY = 500
OUTLIER_SD = 12.0

_WARPS = {
    "identity": lambda z: z,
    "skew": lambda z: np.exp(z / 2.0) + 0.3 * z,
    "cube": lambda z: z + 0.25 * z**3,
    "shift": lambda z: 3.0 * z - 5.0,
}
_WARP_ORDER = ("skew", "cube", "identity", "shift")


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's tables and the commands of one job.

    Every job runs ``fit`` and ``eval`` for both model kinds and then
    ``sample`` from the copula model, so each run reports every end-to-end
    metric; the shapes decide which layer dominates.  ``repeats`` runs a
    cheap command several times in a row within a job, so that each command
    is timed over enough of the run for its median to be steady.
    """

    name: str
    why: str
    num_cols: int
    train_rows: int
    heldout_rows: int
    missing_fraction: float
    sample_count: int
    inject_outliers: bool
    repeats: tuple = ()

    def repeat(self, key):
        return dict(self.repeats).get(key, 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall-complete",
            why="6 complete columns of many rows: KDE cdf/pdf at O(rows x centers) dominates; "
            "one missing pattern, no E-step; injected outliers hit the pdf underflow",
            num_cols=6,
            train_rows=2000,
            heldout_rows=2000,
            missing_fraction=0.0,
            sample_count=20,
            inject_outliers=True,
            repeats=(("lgbn_fit", 20), ("lgbn_eval", 20)),
        ),
        Workload(
            name="wide-missing",
            why="40 columns, 25% hidden: thousands of rho fits in the cbn search and one "
            "missing pattern per row in the lgbn E-step; KDE is a small share",
            num_cols=40,
            train_rows=200,
            heldout_rows=1200,
            missing_fraction=0.25,
            sample_count=20,
            inject_outliers=False,
            repeats=(("lgbn_eval", 3),),
        ),
        Workload(
            name="sample",
            why="small 6-column model sampled at scale: KDE used as an inverse, quantile "
            "bisection sweeps the cdf about 26 times per column",
            num_cols=6,
            train_rows=1000,
            heldout_rows=2000,
            missing_fraction=0.0,
            sample_count=1000,
            inject_outliers=False,
            repeats=(("cbn_eval", 2), ("lgbn_fit", 20), ("lgbn_eval", 10)),
        ),
    )
}


def chain_table(num_rows, num_cols, rng):
    """Warped first-order Gaussian chain, shape (num_rows, num_cols)."""
    z = np.empty((num_rows, num_cols))
    z[:, 0] = rng.standard_normal(num_rows)
    sd = np.sqrt(1.0 - CHAIN_RHO * CHAIN_RHO)
    for j in range(1, num_cols):
        z[:, j] = CHAIN_RHO * z[:, j - 1] + sd * rng.standard_normal(num_rows)
    out = np.empty_like(z)
    for j in range(num_cols):
        out[:, j] = _WARPS[_WARP_ORDER[j % len(_WARP_ORDER)]](z[:, j])
    return out


def make_tables(workload, seed):
    """Train and held-out tables plus the held-out row indices made outliers.

    A pure function of ``(workload, seed)``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), *workload.name.encode()]))
    table = chain_table(workload.train_rows + workload.heldout_rows, workload.num_cols, rng)
    train = table[: workload.train_rows]
    heldout = table[workload.train_rows :].copy()
    outliers = np.zeros(0, dtype=int)
    if workload.inject_outliers:
        outliers = np.arange(OUTLIER_EVERY - 1, workload.heldout_rows, OUTLIER_EVERY)
        cols = rng.integers(0, workload.num_cols, outliers.size)
        top = train.max(axis=0) + OUTLIER_SD * train.std(axis=0, ddof=1)
        heldout[outliers, cols] = top[cols]
    return train, heldout, outliers


def column_names(num_cols):
    return [f"x{j}" for j in range(num_cols)]


def write_table(path, values):
    """Write a complete table as CSV with shortest round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(column_names(values.shape[1]))
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
