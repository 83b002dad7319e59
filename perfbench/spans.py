"""In-memory spans around calls into copulabn's public functions.

``install`` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent) and, where the call's arguments
say how much work it is, two counts.  Functions are replaced under every
name any loaded ``copulabn`` module binds them to, because a module that did
``from .x import f`` keeps its own reference.  ``uninstall`` restores the
originals, so untraced jobs run the unmodified code.

Spans live in flat arrays while the run lasts and are written once, at exit.
"""

import sys
import time
from array import array
from functools import wraps

import numpy as np


def _kde_work(marginal, x, *args, **kwargs):
    points = int(np.size(x))
    return points * int(marginal.samples.size), points


def _pattern_work(model, data, *args, **kwargs):
    patterns = int(np.unique(data.observed, axis=0).shape[0])
    return patterns, int(data.num_rows)


# (module, attribute path, span name, work counter).  A counter returns
# (work, items): kernel evaluations and query points for the KDE, missing
# patterns and rows for the linear-Gaussian E-step and marginal.
TRACED = (
    ("copulabn.marginals", "KdeMarginal.cdf", "marginals.cdf", _kde_work),
    ("copulabn.marginals", "KdeMarginal.pdf", "marginals.pdf", _kde_work),
    ("copulabn.marginals", "KdeMarginal.quantile", "marginals.quantile", None),
    ("copulabn.marginals", "fit_kde", "marginals.fit_kde", None),
    ("copulabn.copula", "FamilyStats.fit", "copula.rho_fit", None),
    ("copulabn.copula", "FamilyStats.objective", "copula.objective", None),
    ("copulabn.structure", "greedy_search", "structure.greedy_search", None),
    ("copulabn.cbn", "fit_missing", "cbn.fit_missing", None),
    ("copulabn.cbn", "lower_bound_rows", "cbn.lower_bound_rows", None),
    ("copulabn.cbn", "forward_sample", "cbn.forward_sample", None),
    ("copulabn.gaussian_bn", "em_fit_lg", "gaussian_bn.em_fit_lg", None),
    ("copulabn.gaussian_bn", "expected_moments", "gaussian_bn.expected_moments", _pattern_work),
    ("copulabn.gaussian_bn", "log_marginal_lg_rows", "gaussian_bn.log_marginal_lg_rows", _pattern_work),
    ("copulabn.gaussian_bn", "family_ll_from_moments", "gaussian_bn.family_ll_from_moments", None),
    ("copulabn.benchmark", "fit_model", "benchmark.fit_model", None),
    ("copulabn.benchmark", "score_rows", "benchmark.score_rows", None),
    ("copulabn.data", "load_csv", "data.load_csv", None),
    ("copulabn.model_io", "load_model", "model_io.load_model", None),
    ("copulabn.model_io", "save_model", "model_io.save_model", None),
)


class Tracer:
    """Span recorder: one row per span in parallel arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.items = array("q")
        self._stack = []
        self._patches = []

    def open(self, name, work=0, items=0):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.items.append(items)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            work, items = counter(*args, **kwargs) if counter else (0, 0)
            sid = self.open(name, work, items)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self):
        """Wrap every traced callable under every name that binds it."""
        if self._patches:
            raise RuntimeError("spans are already installed")
        modules = [m for k, m in sys.modules.items() if k == "copulabn" or k.startswith("copulabn.")]
        for module_name, path, span_name, counter in TRACED:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, span_name, counter))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        """Spans as numpy arrays; ``names[name_id[i]]`` is span i's name."""
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "items": np.frombuffer(self.items, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_table(tracer, job_span, metric_names):
    """Per-layer metrics as medians over the jobs recorded under ``job_span``.

    A metric name is a span name and a statistic, per job: ``<span>.self_s``
    sums span self time (duration minus the time covered by direct child
    spans), ``<span>.calls`` counts spans and ``<span>.kernel_evals`` sums the
    span's work counter.  Two names are derived across spans:
    ``marginals.quantile.cdf_sweeps`` counts cdf calls made directly by a
    quantile call, the bracket grid included, and
    ``gaussian_bn.rows_per_pattern`` is rows per distinct missing pattern over
    the E-step and marginal calls.  A layer the job never enters reads 0.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = (a["end_ns"] - a["start_ns"]).astype(float)
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    ones = np.ones(dur.size)
    work = a["work"].astype(float)
    stats = {"self_s": (dur - child) / 1e9, "calls": ones, "kernel_evals": work}

    job_ids = np.nonzero(a["name_id"] == names.index(job_span))[0]
    # Spans are numbered in start order and a job encloses everything
    # opened while it runs, so the last job opened at or before span i owns it.
    owner = np.searchsorted(job_ids, np.arange(dur.size), side="right") - 1

    def per_job(mask, values):
        sel = mask & (owner >= 0)
        return np.bincount(owner[sel], weights=values[sel], minlength=job_ids.size)

    def of(span_name):
        if span_name not in names:
            return np.zeros(dur.size, dtype=bool)
        return a["name_id"] == names.index(span_name)

    def cdf_sweeps():
        quantile_ids = np.nonzero(of("marginals.quantile"))[0]
        return per_job(of("marginals.cdf") & np.isin(a["parent"], quantile_ids), ones)

    def rows_per_pattern():
        lg = of("gaussian_bn.expected_moments") | of("gaussian_bn.log_marginal_lg_rows")
        patterns = per_job(lg, work)
        rows = per_job(lg, a["items"].astype(float))
        return np.divide(rows, patterns, out=np.zeros_like(rows), where=patterns > 0)

    derived = {"marginals.quantile.cdf_sweeps": cdf_sweeps,
               "gaussian_bn.rows_per_pattern": rows_per_pattern}
    table = {}
    for metric in metric_names:
        if metric in derived:
            per_job_values = derived[metric]()
        else:
            span_name, stat = metric.rsplit(".", 1)
            per_job_values = per_job(of(span_name), stats[stat])
        table[metric] = float(np.median(per_job_values))
    return table
