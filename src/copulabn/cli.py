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


def _fraction_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"invalid fraction list: {text!r}")
    if not values:
        raise _UsageError("empty fraction list")
    for v in values:
        if not 0.0 <= v < 1.0:
            raise _UsageError(f"missing fraction {v} outside [0, 1)")
    return values


def _int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"invalid integer list: {text!r}")
    if not values:
        raise _UsageError("empty integer list")
    return values


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _build_parser():
    parser = _Parser(prog="copulabn", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"copulabn {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common_model_flags(p):
        p.add_argument("--max-parents", default="3",
                       help="parent cap for structure search (1: tree-shaped networks "
                            "only); benchmark takes a comma list (default: 3)")

    def common_split_flags(p):
        p.add_argument("--missing-fraction", default="0",
                       help="fraction of cells to hide; benchmark takes a comma list (default: 0)")
        p.add_argument("--splits", type=_int_at_least(1), default=10,
                       help="number of train/test splits (default: 10)")
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="base seed (default: 0)")

    def mask_scope_flag(p):
        p.add_argument("--mask-scope", choices=["train_only", "train_and_test"],
                       default="train_only",
                       help="which halves receive hidden cells (default: train_only)")

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--model", choices=["cbn", "lgbn"], default="cbn",
                       help="model kind (default: cbn)")
    common_model_flags(p_fit)
    common_split_flags(p_fit)
    p_fit.add_argument("--split-index", type=int, default=None,
                       help="fit on the train half of this split instead of the full file")
    p_fit.add_argument("--out", required=True, help="output model file path")

    p_eval = sub.add_parser("eval", help="score a dataset under a fitted model")
    p_eval.add_argument("--model-file", required=True, help="fitted model path")
    p_eval.add_argument("--data", required=True, help="input CSV path")
    common_split_flags(p_eval)
    p_eval.add_argument("--split-index", type=int, default=None,
                        help="score one half of this split instead of the full file")
    p_eval.add_argument("--role", choices=["train", "test"], default="test",
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
    p_bench.add_argument("--model", default="cbn,lgbn",
                         help="comma list of model kinds (default: cbn,lgbn)")
    common_model_flags(p_bench)
    common_split_flags(p_bench)
    mask_scope_flag(p_bench)
    p_bench.add_argument("--out", required=True, help="output CSV path")

    p_marg = sub.add_parser("marginals", help="tabulate fitted marginals")
    p_marg.add_argument("--data", required=True, help="input CSV path")
    p_marg.add_argument("--grid-points", type=_int_at_least(2), default=257)
    p_marg.add_argument("--out", required=True, help="output CSV path")

    return parser


def _max_parents_list(args):
    """Parent caps from --max-parents."""
    caps = _int_list(args.max_parents)
    if min(caps) < 0:
        raise _UsageError(f"--max-parents must be >= 0, got {min(caps)}")
    return caps


def _split_flags(args):
    """fit's and eval's single --missing-fraction; it and --split-index (in
    [0, --splits)) are checked here, before any file is read."""
    values = _fraction_list(args.missing_fraction)
    if len(values) != 1:
        raise _UsageError("this command takes a single --missing-fraction value")
    if args.split_index is not None and not 0 <= args.split_index < args.splits:
        raise _UsageError(f"--split-index {args.split_index} outside [0, {args.splits})")
    return values[0]


def _eval_subset(data, args, p):
    """Select the rows named by the eval/fit split flags and hide a fraction p of their cells."""
    if args.split_index is None:
        if p > 0.0:
            data = apply_missing_mask(data, p, mask_seed_for(args.seed, 0, p, "train"))
        return data
    protocol = ExperimentProtocol(
        num_splits=args.splits,
        base_seed=args.seed,
        mask_scope=getattr(args, "mask_scope", "train_only"),
    )
    train, test, _, _ = _masked_split(data, protocol, args.split_index, p)
    return train if getattr(args, "role", "train") == "train" else test


def _cmd_fit(args):
    caps = _max_parents_list(args)
    if len(caps) != 1:
        raise _UsageError("this command takes a single --max-parents value")
    config = SearchConfig(max_parents=caps[0])
    p = _split_flags(args)
    data = _eval_subset(load_csv(args.data), args, p)
    model = fit_model(data, args.model, config)
    save_model(model, args.out)
    edges = model.dag.num_edges()
    print(f"fit {args.model}: {data.num_rows} rows, {data.num_cols} columns, "
          f"{edges} edges -> {args.out}")
    return EXIT_OK


def _cmd_eval(args):
    p = _split_flags(args)
    model = load_model(args.model_file)
    data = load_csv(args.data)
    if list(data.column_names) != list(model.column_names):
        raise DataError("dataset columns do not match the model's columns")
    subset = _eval_subset(data, args, p)
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
    kinds = [tok.strip() for tok in args.model.split(",") if tok.strip() != ""]
    max_parents_list = _max_parents_list(args)
    fractions = _fraction_list(args.missing_fraction)
    protocol = ExperimentProtocol(
        num_splits=args.splits, base_seed=args.seed, mask_scope=args.mask_scope
    )
    result = run_benchmark(
        args.data,
        protocol,
        kinds,
        max_parents_list,
        fractions,
        args.out,
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
