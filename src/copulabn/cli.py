"""Command-line interface.

Subcommands:

* ``fit``       — learn structure and parameters from a CSV, save a model file
* ``eval``      — score a dataset (or one benchmark split of it) under a model
* ``sample``    — draw rows from a fitted model into a CSV
* ``benchmark`` — run the full split/mask/fit/score grid
* ``marginals`` — tabulate each column's fitted density and CDF on a grid

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
input files), 3 numerical failure.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .benchmark import _masked_split, fit_model, mask_seed_for, run_benchmark, score_rows
from .data import ExperimentProtocol, _write_csv, apply_missing_mask, load_csv
from .errors import (
    CopulaBnError,
    DataError,
    InvalidInputError,
    OutOfRangeError,
)
from .marginals import fit_kde
from .model_io import load_model, save_model
from .cbn import forward_sample
from .structure import SearchConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not SystemExit(2)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _fraction(text):
    """argparse type: a fraction of cells to hide, in [0, 1) (never nan);
    -0.0 reads as 0.0."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value + 0.0


def _listed(parse):
    """argparse type: a comma list of ``parse`` values, blank tokens skipped."""
    def comma_list(text):
        values = [parse(tok.strip()) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values
    return comma_list


# Defaults of the flags that describe the split --split-index names.  Without
# --split-index, fit and eval would ignore them, so there they default to
# None ("not given") and take these values once _check_split_flags passes.
_SPLIT_DEFAULTS = {"splits": 10, "role": "test", "mask_scope": "train_only"}


def _build_parser():
    parser = _Parser(prog="copulabn", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"copulabn {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common_model_flags(p, bench=False):
        cap = _int_at_least(0)
        p.add_argument("--max-parents", type=_listed(cap) if bench else cap,
                       default=[3] if bench else 3,
                       help="parent cap for structure search (1: tree-shaped networks "
                            "only); benchmark takes a comma list (default: 3)")

    def common_split_flags(p, bench=False):
        p.add_argument("--missing-fraction", type=_listed(_fraction) if bench else _fraction,
                       default=[0.0] if bench else 0.0,
                       help="fraction of cells to hide; benchmark takes a comma list (default: 0)")
        p.add_argument("--splits", type=_int_at_least(1),
                       default=_SPLIT_DEFAULTS["splits"] if bench else None,
                       help="number of train/test splits (default: 10)")
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="base seed (default: 0)")

    def mask_scope_flag(p, bench=False):
        p.add_argument("--mask-scope", choices=["train_only", "train_and_test"],
                       default=_SPLIT_DEFAULTS["mask_scope"] if bench else None,
                       help="which halves receive hidden cells (default: train_only)")

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--model", choices=["cbn", "lgbn"], default="cbn",
                       help="model kind (default: cbn)")
    common_model_flags(p_fit)
    common_split_flags(p_fit)
    p_fit.add_argument("--split-index", type=_int_at_least(0), default=None,
                       help="fit on the train half of this split instead of the full file")
    p_fit.add_argument("--out", required=True, help="output model file path")

    p_eval = sub.add_parser("eval", help="score a dataset under a fitted model")
    p_eval.add_argument("--model-file", required=True, help="fitted model path")
    p_eval.add_argument("--data", required=True, help="input CSV path")
    common_split_flags(p_eval)
    p_eval.add_argument("--split-index", type=_int_at_least(0), default=None,
                        help="score one half of this split instead of the full file")
    p_eval.add_argument("--role", choices=["train", "test"], default=None,
                        help="which half of the split to score (default: test)")
    mask_scope_flag(p_eval)
    p_eval.add_argument("--out", default=None, help="optional per-instance score CSV")

    p_sample = sub.add_parser("sample", help="draw rows from a fitted model")
    p_sample.add_argument("--model-file", required=True, help="fitted model path")
    p_sample.add_argument("--count", type=_int_at_least(1), required=True, help="number of rows")
    p_sample.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sample.add_argument("--out", required=True, help="output CSV path")

    p_bench = sub.add_parser("benchmark", help="run the split/mask/fit/score grid")
    p_bench.add_argument("--data", required=True, help="input CSV path")
    p_bench.add_argument("--model", type=_listed(str), default=["cbn", "lgbn"],
                         help="comma list of model kinds (default: cbn,lgbn)")
    common_model_flags(p_bench, bench=True)
    common_split_flags(p_bench, bench=True)
    mask_scope_flag(p_bench, bench=True)
    p_bench.add_argument("--out", required=True, help="output CSV path")

    p_marg = sub.add_parser("marginals", help="tabulate fitted marginals")
    p_marg.add_argument("--data", required=True, help="input CSV path")
    p_marg.add_argument("--grid-points", type=_int_at_least(2), default=257)
    p_marg.add_argument("--out", required=True, help="output CSV path")

    return parser


def _check_split_flags(args):
    """Checked before any file is read: the flags that describe a split come
    with --split-index, which names one of the --splits splits.  Then the
    flags not given take their defaults."""
    split_flags = {name: value for name, value in vars(args).items() if name in _SPLIT_DEFAULTS}
    given = [f"--{name.replace('_', '-')}" for name, value in split_flags.items() if value is not None]
    if args.split_index is None and given:
        raise _UsageError(f"{', '.join(given)} without --split-index would be ignored")
    for name, value in split_flags.items():
        if value is None:
            setattr(args, name, _SPLIT_DEFAULTS[name])
    if args.split_index is not None and args.split_index >= args.splits:
        raise _UsageError(f"--split-index {args.split_index} outside [0, {args.splits})")


def _eval_subset(data, args, role, mask_scope):
    """The ``role`` half of split --split-index (without one, all of ``data``)
    with a fraction --missing-fraction of its cells hidden."""
    p = args.missing_fraction
    if args.split_index is None:
        if p > 0.0:
            data = apply_missing_mask(data, p, mask_seed_for(args.seed, 0, p, "train"))
        return data
    protocol = ExperimentProtocol(
        num_splits=args.splits, base_seed=args.seed, mask_scope=mask_scope
    )
    train, test, _, _ = _masked_split(data, protocol, args.split_index, p)
    return train if role == "train" else test


def _cmd_fit(args):
    _check_split_flags(args)
    data = _eval_subset(load_csv(args.data), args, "train", "train_only")
    model = fit_model(data, args.model, SearchConfig(max_parents=args.max_parents))
    save_model(model, args.out)
    edges = model.dag.num_edges()
    print(f"fit {args.model}: {data.num_rows} rows, {data.num_cols} columns, "
          f"{edges} edges -> {args.out}")
    return EXIT_OK


def _cmd_eval(args):
    _check_split_flags(args)
    model = load_model(args.model_file)
    data = load_csv(args.data)
    if list(data.column_names) != list(model.column_names):
        raise DataError("dataset columns do not match the model's columns")
    subset = _eval_subset(data, args, args.role, args.mask_scope)
    scores = score_rows(model, subset)
    mean = float(np.mean(scores))
    if args.out is not None:
        _write_csv(args.out, ["row_index", "log_score"], enumerate(scores.tolist()))
    print(f"eval: {subset.num_rows} rows, mean log-score {mean!r}")
    return EXIT_OK


def _cmd_sample(args):
    model = load_model(args.model_file)
    if not hasattr(model, "marginals"):
        raise InvalidInputError("sampling is only supported for cbn model files")
    values = forward_sample(model, args.count, args.seed)
    _write_csv(args.out, model.column_names, values.tolist())
    print(f"sample: wrote {args.count} rows -> {args.out}")
    return EXIT_OK


def _cmd_benchmark(args):
    protocol = ExperimentProtocol(
        num_splits=args.splits, base_seed=args.seed, mask_scope=args.mask_scope
    )
    result = run_benchmark(
        args.data, protocol, args.model, args.max_parents, args.missing_fraction, args.out
    )
    for a in result.aggregates:
        print(f"benchmark: {a.model_kind} max_parents={a.max_parents} "
              f"missing={a.missing_fraction:g} test mean {a.test_mean:.6f}")
    print(f"benchmark: wrote {len(result.rows)} split rows -> {args.out}")
    return EXIT_OK


def _cmd_marginals(args):
    data = load_csv(args.data)
    rows = []
    for j, name in enumerate(data.column_names):
        marginal = fit_kde(data.values[data.observed[:, j], j])
        grid = np.linspace(marginal.support_lo, marginal.support_hi, args.grid_points)
        rows += [[name, *cells] for cells in zip(grid.tolist(), marginal.pdf(grid).tolist(),
                                                 marginal.cdf(grid).tolist())]
    _write_csv(args.out, ["column", "x", "pdf", "cdf"], rows)
    print(f"marginals: wrote {data.num_cols} columns x {args.grid_points} points -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "sample": _cmd_sample,
    "benchmark": _cmd_benchmark,
    "marginals": _cmd_marginals,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("copulabn: error: a command is required", file=sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except (OutOfRangeError, InvalidInputError) as e:
        print(f"copulabn: invalid argument: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"copulabn: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (CopulaBnError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"copulabn: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
