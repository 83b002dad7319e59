"""Benchmark of the copulabn ``fit``, ``eval`` and ``sample`` commands.

Run from the repository root:

    python3 perfbench/run.py --workload tall-complete --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with one client: jobs run
back to back until ``--seconds`` is used up.  A job drives the command line
in-process through ``copulabn.cli.main``:

    fit --model cbn, eval, fit --model lgbn, eval, sample (from the cbn model)

on warped-chain tables generated from ``--seed`` (see ``workloads.py``).
Cheap commands repeat within a job.  Each timing is the median over every
run of that command in the measured loop.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold the end-to-end metrics.  With ``--trace 1`` the run
alternates untraced and traced jobs; the traced ones record spans around
calls into each module's public functions (``spans.py``), and ``metrics``
hold the per-layer table, per job.  The tracing overhead, measured against
the untraced jobs of the same run, is printed and recorded.  Metric names
and units come from ``BENCHMARK.json``.

``attempted`` and ``failed`` count commands; a command fails when it exits
non-zero, and its time is left out of the medians.  ``failed_share`` counts
rows: a row fails when its command exits non-zero, its eval score is not
finite or its sampled cells are not finite.  The run is ``correct`` only
when every check holds: every command exits 0, the score and sample files
exist with the expected shape, sampled cells are finite, eval scores are
finite on every row but the injected outliers and the rows beyond the KDE
support (``SUPPORT_BANDWIDTHS``), repeated jobs write bitwise identical
files, and on complete held-out rows the ``eval`` score equals
``log_density_rows`` of the saved model bitwise.  The held-out
log-likelihoods are means over the rows that are neither.

Every result, with the environment, the output digests and the checks, is
also written to ``.perfbench_out/`` under the repository root; a traced run
writes its spans there too.  The run exits 2 without a result when the
repository's ``src/copulabn`` is missing.
"""

import argparse
import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread keeps timings steady on a shared machine and never exceeds
# the core count; it must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

from workloads import WORKLOADS, make_tables, write_table  # noqa: E402

# Repetitions of table generation and CSV writing whose median is set-up time.
SETUP_REPEATS = 5

# On a shared machine the speed of every kind of code drifts by tens of
# percent, within a second and between minutes.  So each timing is scaled by
# REFERENCE_S / (mean time of a fixed reference kernel run just before it,
# every PROBE_INTERVAL_S while it runs, and just after it): times are
# reported at the speed at which the reference takes REFERENCE_S.  The
# probes' own time is taken out of the command's.  The kernel runs no
# copulabn code, so a change to the package moves the scaled times as it
# moves the raw ones.  The raw times are printed in brackets and kept in the
# record.  Traced jobs are not probed, so that no probe lands in a span.
REFERENCE_S = 4.5e-3
PROBE_INTERVAL_S = 0.05
_REFERENCE_X = np.linspace(-4.0, 4.0, 200000)
_REFERENCE_V = np.linspace(-1.0, 1.0, 40)
_REFERENCE_M = np.eye(40) * 40.0 + np.outer(_REFERENCE_V, _REFERENCE_V)

# Complete inlier held-out rows checked for bound == density.
DENSITY_CHECK_ROWS = 200
# A cell this many bandwidths from every kernel centre of its column's fitted
# marginal is beyond the KDE's floating-point support: each kernel term of its
# pdf is below 1e-281, their mean underflows to 0 from about 38 bandwidths,
# and the row's cbn score can be -inf.  The injected outliers are such rows,
# and so, for a few seeds, is a natural tail row.
SUPPORT_BANDWIDTHS = 36.0
MAX_PARENTS = "2"

# Metrics printed and recorded but not declared in BENCHMARK.json, with their
# units.  failed_share reads 0 wherever no row fails, and the tracing overhead
# straddles 0 and measures the harness, not a layer of the program.
EXTRA_END_TO_END = {"failed_share": "share"}
EXTRA_PER_LAYER = {"trace.overhead_pct": "%"}


def declared_metrics():
    """{section: {metric name: unit}} for the metric sections of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def reference_seconds():
    """One run of the reference kernel.

    It mixes the three kinds of work the commands do: an interpreter loop,
    small dense solves and one large vector operation.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(50):
        np.exp(np.linalg.solve(_REFERENCE_M, _REFERENCE_V)).sum()
    np.exp(-0.5 * _REFERENCE_X * _REFERENCE_X).sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs the reference kernel on a SIGALRM timer while a command runs."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum, frame):
        with np.errstate(all="ignore"):
            self.samples.append(reference_seconds())

    def __enter__(self):
        self.samples.clear()
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_copulabn():
    """Import the package from this checkout's ``src``; None when absent."""
    if not (SRC / "copulabn" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import copulabn.cli

    if Path(copulabn.__file__).resolve().parent != SRC / "copulabn":
        return None
    return copulabn.cli


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_commit():
    """HEAD commit read from ``.git`` without starting a process, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the env setting."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return int(BLAS_THREADS)


def environment(args):
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "seed": args.seed,
        "git_commit": git_commit(),
    }


class Bench:
    """One workload's files, job loop, checks and metrics."""

    def __init__(self, cli, workload, seed, work_dir):
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.dir = work_dir
        self.train = work_dir / "train.csv"
        self.heldout = work_dir / "heldout.csv"
        self.outliers = None
        self.jobs = []
        self.failures = []

    def path(self, name):
        return self.dir / name

    def setup_tables(self):
        train, heldout, outliers = make_tables(self.w, self.seed)
        write_table(self.train, train)
        write_table(self.heldout, heldout)
        self.outliers = outliers

    def commands(self):
        """(key, argv) of one job in order, cheap commands repeated."""
        mask = []
        if self.w.missing_fraction > 0.0:
            mask = ["--missing-fraction", repr(self.w.missing_fraction), "--seed", str(self.seed)]
        cmds = []
        for kind in ("cbn", "lgbn"):
            model = str(self.path(f"{kind}.json"))
            cmds.append((f"{kind}_fit", ["fit", "--data", str(self.train), "--model", kind,
                                         "--max-parents", MAX_PARENTS, *mask, "--out", model]))
            cmds.append((f"{kind}_eval", ["eval", "--model-file", model, "--data",
                                          str(self.heldout), *mask,
                                          "--out", str(self.path(f"{kind}.scores.csv"))]))
        cmds.append(("sample", ["sample", "--model-file", str(self.path("cbn.json")),
                                "--count", str(self.w.sample_count), "--seed", str(self.seed),
                                "--out", str(self.path("sample.csv"))]))
        return [(key, argv) for key, argv in cmds for _ in range(self.w.repeat(key))]

    OUTPUTS = ("cbn.json", "lgbn.json", "cbn.scores.csv", "lgbn.scores.csv", "sample.csv")

    def run_job(self, tracer=None):
        """Run one job; records per-command raw and scaled seconds and exit codes."""
        for name in self.OUTPUTS:
            self.path(name).unlink(missing_ok=True)
        job_sid = tracer.open("job") if tracer else None
        times, scaled, codes = {}, {}, {}
        t_job = time.perf_counter()
        probe = SpeedProbe()
        ref_before = reference_seconds()
        for key, argv in self.commands():
            sid = tracer.open(f"cli.{argv[0]}") if tracer else None
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(out),
                      contextlib.nullcontext() if tracer else probe):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed command, not the end of the run
                code = None
                out.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0 - sum(probe.samples)
            if tracer:
                tracer.close(sid)
            ref_after = reference_seconds()
            speed = statistics.fmean([ref_before, *probe.samples, ref_after])
            probe.samples.clear()
            times.setdefault(key, []).append(elapsed)
            scaled.setdefault(key, []).append(elapsed * REFERENCE_S / speed)
            ref_before = ref_after
            codes.setdefault(key, []).append(code)
            if code != 0:
                self.failures.append({"key": key, "exit": code, "output": out.getvalue()[-2000:]})
        total = time.perf_counter() - t_job
        if tracer:
            tracer.close(job_sid)
        digests = {name: sha256(self.path(name)) for name in self.OUTPUTS
                   if self.path(name).is_file()}
        job = {"seconds": total, "times": times, "scaled": scaled, "codes": codes,
               "digests": digests, "traced": tracer is not None}
        self.jobs.append(job)
        return job

    # ---- checks, on the last job's files (all jobs' files are identical) ----

    def read_scores(self, name, checks):
        """Scores of a score file as an array; None, with a failed check, when absent or malformed."""
        rows = read_csv_rows(self.path(name))
        ok = (rows is not None and rows[0] == ["row_index", "log_score"]
              and len(rows) - 1 == self.w.heldout_rows
              and all(len(r) == 2 and r[0] == str(i) for i, r in enumerate(rows[1:])))
        scores = parse_floats([r[1] for r in rows[1:]]) if ok else None
        checks[f"{name} has one score per held-out row"] = scores is not None
        return scores

    def read_sample(self, checks):
        """Sampled cells as an array; None, with a failed check, when absent or malformed."""
        from copulabn.model_io import load_model

        rows = read_csv_rows(self.path("sample.csv"))
        ok = (rows is not None and self.path("cbn.json").is_file()
              and rows[0] == list(load_model(str(self.path("cbn.json"))).column_names)
              and len(rows) - 1 == self.w.sample_count
              and all(len(r) == len(rows[0]) for r in rows[1:]))
        sample = parse_floats(rows[1:]) if ok else None
        checks["sample.csv has --count rows and the model's columns"] = sample is not None
        checks["sample.csv cells are all finite"] = bool(
            sample is not None and np.isfinite(sample).all()
        )
        return sample

    def density_check(self, scores, checks):
        """Eval scores equal log_density_rows of the saved model, bitwise."""
        from copulabn.cbn import log_density_rows
        from copulabn.data import load_csv
        from copulabn.model_io import load_model

        if self.w.missing_fraction > 0.0 or scores is None:
            return 0
        inliers = np.setdiff1d(np.arange(self.w.heldout_rows), self.outliers)
        step = max(1, inliers.size // DENSITY_CHECK_ROWS)
        subset = inliers[::step][:DENSITY_CHECK_ROWS]
        model = load_model(str(self.path("cbn.json")))
        values = load_csv(str(self.heldout)).values[subset]
        with np.errstate(divide="ignore"):
            density = log_density_rows(model, values)
        checks["eval score == log_density_rows bitwise on complete rows"] = (
            density.tobytes() == scores[subset].tobytes()
        )
        return int(subset.size)

    def beyond_support(self):
        """Held-out rows with a cell beyond the saved cbn model's KDE support."""
        from copulabn.data import load_csv
        from copulabn.model_io import load_model

        far = np.zeros(self.w.heldout_rows, dtype=bool)
        if not self.path("cbn.json").is_file():
            return far
        model = load_model(str(self.path("cbn.json")))
        values = load_csv(str(self.heldout)).values
        for x, marginal in zip(values.T, model.marginals):
            centres = np.sort(marginal.samples)
            idx = np.searchsorted(centres, x)
            below = centres[np.maximum(idx - 1, 0)]
            above = centres[np.minimum(idx, centres.size - 1)]
            gap = np.minimum(np.abs(x - below), np.abs(x - above))
            far |= gap >= SUPPORT_BANDWIDTHS * marginal.bandwidth
        return far

    def results(self):
        """Checks, row failure accounting and end-to-end metrics."""
        checks = {}
        checks["every command exits 0"] = all(
            c == 0 for j in self.jobs for cs in j["codes"].values() for c in cs
        )
        first = self.jobs[0]["digests"]
        checks["every job writes bitwise identical outputs"] = all(
            j["digests"] == first for j in self.jobs
        )
        scores = {k: self.read_scores(f"{k}.scores.csv", checks) for k in ("cbn", "lgbn")}
        sample = self.read_sample(checks)
        checked_rows = self.density_check(scores["cbn"], checks)

        injected = np.zeros(self.w.heldout_rows, dtype=bool)
        injected[self.outliers] = True
        far = self.beyond_support()
        inlier = ~(injected | far)
        # Rows each successful command fails; outputs are identical across
        # invocations (checked above), so the last files stand for all.
        rows = {"cbn_eval": self.w.heldout_rows, "lgbn_eval": self.w.heldout_rows,
                "sample": self.w.sample_count}
        bad = {}
        loglik = {}
        for kind, s in scores.items():
            if s is None:
                bad[f"{kind}_eval"] = self.w.heldout_rows
                loglik[kind] = math.nan
                continue
            finite = np.isfinite(s)
            bad[f"{kind}_eval"] = int((~finite).sum())
            # Only rows that are injected outliers or beyond the KDE support
            # may fail; a non-finite inlier fails this check and makes the
            # log-likelihood non-finite.
            checks[f"{kind} eval scores are finite on rows within the KDE support"] = bool(
                finite[inlier].all()
            )
            loglik[kind] = float(s[inlier].mean())
        bad["sample"] = (self.w.sample_count if sample is None
                         else int((~np.isfinite(sample).all(axis=1)).sum()))
        attempted_rows = failed_rows = 0
        for job in self.jobs:
            for key, n in rows.items():
                for code in job["codes"][key]:
                    attempted_rows += n
                    failed_rows += n if code != 0 else bad[key]
        failed_share = failed_rows / attempted_rows

        def median(key, kind="scaled"):
            """Median time of the commands under ``key`` that exited 0."""
            ok = [t for j in self.jobs for t, code in zip(j[kind][key], j["codes"][key])
                  if code == 0]
            return statistics.median(ok) if ok else math.nan

        def timed(kind):
            return {
                "cbn_fit_s": median("cbn_fit", kind),
                "lgbn_fit_s": median("lgbn_fit", kind),
                "cbn_eval_rows_per_s": self.w.heldout_rows / median("cbn_eval", kind),
                "lgbn_eval_rows_per_s": self.w.heldout_rows / median("lgbn_eval", kind),
                "sample_rows_per_s": self.w.sample_count / median("sample", kind),
            }

        metrics = {
            **timed("scaled"),
            "cbn_heldout_loglik": loglik["cbn"],
            "lgbn_heldout_loglik": loglik["lgbn"],
            "failed_share": failed_share,
        }
        details = {
            "raw_timings": timed("times"),
            "checks": checks,
            "density_checked_rows": checked_rows,
            "failed_rows": failed_rows,
            "attempted_rows": attempted_rows,
            "failed_rows_per_output": bad,
            "injected_outlier_rows": self.outliers.tolist(),
            "natural_rows_beyond_support": np.nonzero(far & ~injected)[0].tolist(),
            "digests": first,
        }
        return metrics, details


def read_csv_rows(path):
    """Rows of a CSV file, or None when it is absent or empty."""
    if not path.is_file():
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh)) or None


def parse_floats(cells):
    """Cells as a float array, or None when one does not parse."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return None


def run_jobs(bench, seconds, tracer):
    """Closed loop until ``seconds`` would be exceeded by one more job.

    With a tracer, untraced and traced jobs alternate, untraced first.
    """
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(bench.jobs) % 2 == 1
        if traced:
            tracer.install()
            try:
                job = bench.run_job(tracer)
            finally:
                tracer.uninstall()
        else:
            job = bench.run_job()
        elapsed = time.perf_counter() - started
        if elapsed + job["seconds"] > seconds and (tracer is None or len(bench.jobs) >= 2):
            return elapsed


def main(argv=None):
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    declared = declared_metrics()
    end_to_end_units = {**declared["end_to_end"], **EXTRA_END_TO_END}

    # Set-up is timed and scaled like a command: probed while it runs.
    probe = SpeedProbe()
    speeds = [reference_seconds()]
    t0 = time.perf_counter()
    with probe:
        cli = import_copulabn()
    import_s = time.perf_counter() - t0 - sum(probe.samples)
    speeds += probe.samples
    if cli is None:
        print(f"perfbench: no copulabn package under {SRC}", file=sys.stderr)
        return 2

    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(cli, w, args.seed, work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with probe:
                bench.setup_tables()
            setup_times.append(time.perf_counter() - t0 - sum(probe.samples))
            speeds += [*probe.samples, reference_seconds()]
        raw_setup_s = import_s + statistics.median(setup_times)
        setup_s = raw_setup_s * REFERENCE_S / statistics.fmean(speeds)

        tracer = None
        if args.trace:
            from spans import Tracer, layer_table

            tracer = Tracer()
        measured_s = run_jobs(bench, args.seconds, tracer)
        # Read before the checks, whose memory is not the workload's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, details = bench.results()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb
    codes = [c for job in bench.jobs for cs in job["codes"].values() for c in cs]
    attempted = len(codes)
    failed = sum(1 for c in codes if c != 0)
    correct = all(details["checks"].values())

    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": args.trace,
        "environment": environment(args),
        "jobs": len(bench.jobs),
        "reference_s": REFERENCE_S,
        "raw_setup_s": raw_setup_s,
        "raw_import_s": import_s,
        "raw_table_s": setup_times,
        "job_times": [{"traced": j["traced"], "raw": j["times"], "scaled": j["scaled"]}
                      for j in bench.jobs],
        "end_to_end": {k: {"value": metrics[k], "unit": u} for k, u in end_to_end_units.items()},
        "commands_attempted": attempted,
        "commands_failed": failed,
        "command_failures": bench.failures,
        "correct": correct,
        **details,
    }
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"

    print(f"workload {w.name} (seed {args.seed}): {w.why}")
    print(f"jobs {len(bench.jobs)} in {measured_s:.1f} s")
    if args.trace:
        def job_s(job):
            return sum(sum(ts) for ts in job["scaled"].values())

        untraced = [job_s(j) for j in bench.jobs if not j["traced"]]
        traced = [job_s(j) for j in bench.jobs if j["traced"]]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        table = layer_table(tracer, "job", declared["per_layer"])
        table["trace.overhead_pct"] = overhead
        tracer.save(OUT_DIR / f"{stem}.spans.npz")
        units = {**declared["per_layer"], **EXTRA_PER_LAYER}
        record["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in table.items()}
        record["traced_jobs"] = len(traced)
        print(f"per-layer metrics, median per traced job ({len(traced)} traced, "
              f"{len(untraced)} untraced jobs):")
        for name, value in table.items():
            print(f"  {name:44s} {value:14.6g} {units[name]}")
        out_metrics = {k: record["per_layer"][k] for k in declared["per_layer"]}
    else:
        commands = {"cbn_fit_s": "cbn_fit", "lgbn_fit_s": "lgbn_fit",
                    "cbn_eval_rows_per_s": "cbn_eval", "lgbn_eval_rows_per_s": "lgbn_eval",
                    "sample_rows_per_s": "sample"}
        raw = {**details["raw_timings"], "setup_s": raw_setup_s}
        print("end-to-end metrics (times scaled to reference speed; raw in brackets):")
        for name, unit in end_to_end_units.items():
            note = f"  [{raw[name]:.6g}]" if name in raw else ""
            if name in commands:
                n = sum(c == 0 for j in bench.jobs for c in j["codes"][commands[name]])
                note += f"  median of {n} commands that exited 0"
            print(f"  {name:24s} {metrics[name]:14.6g} {unit}{note}")
        out_metrics = {k: record["end_to_end"][k] for k in declared["end_to_end"]}
    for name, ok in details["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"rows failed {details['failed_rows']} of {details['attempted_rows']} "
          f"({details['failed_rows_per_output']} per output); "
          f"commands failed {failed} of {attempted}")

    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for entry in out_metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
