"""Benchmark grid determinism and command-line behavior."""

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from copulabn import benchmark, cli, gaussian_bn
from copulabn.benchmark import BenchmarkRow, mask_seed_for, run_benchmark, score_rows
from copulabn.cbn import forward_sample
from copulabn.cli import _fraction, main
from copulabn.data import ExperimentProtocol, MaskedDataset, load_csv, make_split, save_csv
from copulabn.marginals import fit_kde
from copulabn.model_io import load_model
from copulabn.errors import SingularDesignError, ValidationError

from conftest import chain_scores, cycle_warps, warp_columns


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    rng = np.random.default_rng(21)
    z = chain_scores(0.6, 3, 240, rng)
    x = warp_columns(z, cycle_warps(3))
    path = tmp_path_factory.mktemp("data") / "chain.csv"
    save_csv(MaskedDataset.from_values(x, ("u", "v", "w")), path)
    return path


def _tiny_protocol():
    return ExperimentProtocol(num_splits=2, base_seed=7)


# ----------------------------------------------------------- benchmark


def test_benchmark_csv_is_byte_identical_across_reruns(small_csv, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    r1 = run_benchmark(small_csv, _tiny_protocol(), ["cbn", "lgbn"], [1], [0.0, 0.1], out1)
    r2 = run_benchmark(small_csv, _tiny_protocol(), ["cbn", "lgbn"], [1], [0.0, 0.1], out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert [r.test_score for r in r1.rows] == [r.test_score for r in r2.rows]


def test_benchmark_rows_and_aggregates_are_consistent(small_csv, tmp_path):
    out = tmp_path / "bench.csv"
    result = run_benchmark(small_csv, _tiny_protocol(), ["cbn"], [1], [0.0, 0.1], out)
    # 1 kind x 1 cap x 2 fractions x 2 splits
    assert len(result.rows) == 4
    assert all(isinstance(r, BenchmarkRow) for r in result.rows)
    assert len(result.aggregates) == 2
    for agg in result.aggregates:
        cell = [
            r
            for r in result.rows
            if (r.model_kind, r.max_parents, r.missing_fraction)
            == (agg.model_kind, agg.max_parents, agg.missing_fraction)
        ]
        tests = [r.test_score for r in cell]
        np.testing.assert_allclose(agg.test_mean, np.mean(tests), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            agg.test_p10, np.percentile(tests, 10), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            agg.test_p90, np.percentile(tests, 90), rtol=0, atol=1e-12
        )

    # the CSV holds one line per row plus one per aggregate plus a header
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + len(result.rows) + len(result.aggregates)
    header = lines[0].split(",")
    assert header[0] == "row_kind"
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    split_rows = [p for p in parsed if p["row_kind"] == "split"]
    assert float(split_rows[0]["test_score"]) == result.rows[0].test_score


def test_benchmark_manifest_sidecar(small_csv, tmp_path):
    out = tmp_path / "bench.csv"
    result = run_benchmark(small_csv, _tiny_protocol(), ["cbn"], [1], [0.0], out)
    manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
    assert manifest["dataset"] == str(small_csv)
    assert manifest["protocol"]["num_splits"] == 2
    assert manifest["protocol"]["base_seed"] == 7
    assert manifest["grid"]["model_kinds"] == ["cbn"]
    assert manifest["cell_wall_seconds"] == [r.wall_seconds for r in result.rows]
    assert manifest["numpy"] == np.__version__
    assert "scipy" not in manifest  # numpy is the one runtime dependency


@pytest.mark.parametrize(
    "flag, grid",
    [("--model", "cbn,cbn"), ("--max-parents", "2,2"), ("--missing-fraction", "0,0.0")],
)
def test_repeated_grid_values_are_usage_errors(
    small_csv, tmp_path, capsys, monkeypatch, flag, grid
):
    # A repeat would run every split of its configuration twice and take
    # both aggregates over the doubled rows; it is refused before any cell.
    def refuse(*args):
        raise AssertionError("a benchmark cell ran")

    monkeypatch.setattr(benchmark, "_run_cell", refuse)
    out = tmp_path / "bench.csv"
    argv = ["benchmark", "--data", str(small_csv), "--splits", "2", "--out", str(out)]
    assert main(argv + [flag, grid]) == 1
    assert "repeats a value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", [1.5, float("nan"), True])
def test_a_non_integer_parent_cap_is_refused_before_any_cell(
    small_csv, tmp_path, monkeypatch, cap
):
    # int(1.5) would run and label the grid as a cap of 1.
    def refuse(*args):
        raise AssertionError("a benchmark cell ran")

    monkeypatch.setattr(benchmark, "_run_cell", refuse)
    out = tmp_path / "bench.csv"
    with pytest.raises(ValidationError, match="max_parents must be a non-negative integer"):
        run_benchmark(small_csv, _tiny_protocol(), ["cbn"], [2, cap], [0.0], out)
    assert not out.exists()


def test_mask_seeds_differ_by_role_and_fraction():
    a = mask_seed_for(0, 0, 0.1, "train")
    b = mask_seed_for(0, 0, 0.1, "test")
    c = mask_seed_for(0, 0, 0.2, "train")
    d = mask_seed_for(0, 1, 0.1, "train")
    assert len({a, b, c, d}) == 4
    with pytest.raises(Exception):
        mask_seed_for(0, 0, 0.1, "validation")


# ----------------------------------------------------------------- cli


def test_cli_fit_eval_reproduces_benchmark_cell(small_csv, tmp_path, capsys):
    bench_out = tmp_path / "bench.csv"
    assert main([
        "benchmark", "--data", str(small_csv), "--model", "cbn",
        "--max-parents", "1", "--missing-fraction", "0.1",
        "--splits", "2", "--seed", "7", "--out", str(bench_out),
    ]) == 0
    with open(bench_out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["row_kind"] == "split"]
    target = rows[0]
    assert target["split_index"] == "0"

    model_out = tmp_path / "model.json"
    assert main([
        "fit", "--data", str(small_csv), "--model", "cbn", "--max-parents", "1",
        "--missing-fraction", "0.1", "--splits", "2", "--seed", "7",
        "--split-index", "0", "--out", str(model_out),
    ]) == 0
    capsys.readouterr()

    scores_out = tmp_path / "scores.csv"
    assert main([
        "eval", "--model-file", str(model_out), "--data", str(small_csv),
        "--missing-fraction", "0.1", "--splits", "2", "--seed", "7",
        "--split-index", "0", "--role", "test", "--out", str(scores_out),
    ]) == 0
    mean_line = capsys.readouterr().out.strip()
    reported = float(mean_line.rsplit(" ", 1)[-1])
    np.testing.assert_allclose(reported, float(target["test_score"]), rtol=0, atol=1e-9)

    # per-instance file agrees with the printed mean
    with open(scores_out, newline="") as fh:
        per_row = [float(r["log_score"]) for r in csv.DictReader(fh)]
    np.testing.assert_allclose(np.mean(per_row), reported, rtol=0, atol=1e-12)

    # train-role scoring reproduces the train column too
    assert main([
        "eval", "--model-file", str(model_out), "--data", str(small_csv),
        "--missing-fraction", "0.1", "--splits", "2", "--seed", "7",
        "--split-index", "0", "--role", "train",
    ]) == 0
    train_line = capsys.readouterr().out.strip()
    np.testing.assert_allclose(
        float(train_line.rsplit(" ", 1)[-1]), float(target["train_score"]),
        rtol=0, atol=1e-9,
    )


def test_cli_benchmark_accepts_spaces_in_model_list(small_csv, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main([
        "benchmark", "--data", str(small_csv), "--model", "cbn, lgbn",
        "--max-parents", "1", "--splits", "2", "--out", str(out),
    ]) == 0
    with open(out, newline="") as fh:
        kinds = {r["model_kind"] for r in csv.DictReader(fh)}
    assert kinds == {"cbn", "lgbn"}
    capsys.readouterr()


def test_cli_sample_round_trips(small_csv, tmp_path, capsys):
    model_out = tmp_path / "model.json"
    assert main([
        "fit", "--data", str(small_csv), "--max-parents", "1",
        "--out", str(model_out),
    ]) == 0
    sample_out = tmp_path / "sample.csv"
    assert main([
        "sample", "--model-file", str(model_out), "--count", "50",
        "--seed", "3", "--out", str(sample_out),
    ]) == 0
    capsys.readouterr()
    with open(sample_out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["u", "v", "w"]
    assert len(body) == 50
    assert all(np.isfinite(float(cell)) for row in body for cell in row)


def test_cli_sample_rejects_lgbn_models(small_csv, tmp_path, capsys):
    model_out = tmp_path / "lg.json"
    assert main([
        "fit", "--data", str(small_csv), "--model", "lgbn",
        "--max-parents", "1", "--out", str(model_out),
    ]) == 0
    code = main([
        "sample", "--model-file", str(model_out), "--count", "5",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    capsys.readouterr()


def test_cli_marginals_writes_grid(small_csv, tmp_path, capsys):
    out = tmp_path / "marg.csv"
    assert main([
        "marginals", "--data", str(small_csv), "--grid-points", "33",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 33
    by_col = {}
    for r in rows:
        by_col.setdefault(r["column"], []).append(r)
    for name, col_rows in by_col.items():
        cdf = np.array([float(r["cdf"]) for r in col_rows])
        assert (np.diff(cdf) >= 0).all(), name
        assert cdf[0] < 0.05 and cdf[-1] > 0.95


def test_cli_exit_codes(small_csv, tmp_path, capsys):
    # usage: no command
    assert main([]) == 1
    # usage: missing required flag
    assert main(["fit", "--data", str(small_csv)]) == 1
    # usage: unknown model kind in benchmark list
    assert main([
        "benchmark", "--data", str(small_csv), "--model", "cbn,mystery",
        "--out", str(tmp_path / "x.csv"),
    ]) == 1
    # usage: bad fraction
    assert main([
        "fit", "--data", str(small_csv), "--missing-fraction", "1.5",
        "--out", str(tmp_path / "m.json"),
    ]) == 1
    # data: nonexistent file
    assert main([
        "fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"),
    ]) == 2
    # data: unparseable CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    # data: model/dataset column mismatch
    model_out = tmp_path / "model.json"
    assert main([
        "fit", "--data", str(small_csv), "--max-parents", "1", "--out", str(model_out),
    ]) == 0
    other = tmp_path / "other.csv"
    other.write_text("p,q\n1.0,2.0\n2.0,1.0\n0.5,0.7\n")
    assert main([
        "eval", "--model-file", str(model_out), "--data", str(other),
    ]) == 2
    # data: a model file with a non-finite coefficient
    lgbn_out = tmp_path / "lgbn.json"
    assert main([
        "fit", "--data", str(small_csv), "--model", "lgbn", "--max-parents", "1",
        "--out", str(lgbn_out),
    ]) == 0
    doc = json.loads(lgbn_out.read_text())
    node = next(i for i, ps in enumerate(doc["parents"]) if ps)
    for field, bad in (("intercepts", float("nan")), ("coefficients", float("inf"))):
        broken = json.loads(json.dumps(doc))
        broken[field][node] = [bad] if field == "coefficients" else bad
        lgbn_out.write_text(json.dumps(broken))
        assert main(["eval", "--model-file", str(lgbn_out), "--data", str(small_csv)]) == 2
        assert "finite" in capsys.readouterr().err
    # numerical: collinear parent candidates break the linear-Gaussian fit
    capsys.readouterr()
    assert main([
        "fit", "--data", str(_collinear_csv(tmp_path)), "--model", "lgbn",
        "--max-parents", "2", "--out", str(tmp_path / "m.json"),
    ]) == 3
    assert "collinear parents (1, 2) for node 0" in capsys.readouterr().err


# The messages the constructors already gave for a cbn field.
_HUGE_CBN_MESSAGES = {"rho": "rho must be a real number", "bandwidth": "bandwidth must be a positive real",
                      "samples": "samples must be real numbers"}


@pytest.mark.parametrize("kind, field", [
    ("lgbn", "intercepts"), ("lgbn", "coefficients"), ("lgbn", "variances"),
    ("cbn", "rho"), ("cbn", "bandwidth"), ("cbn", "samples"),
])
def test_cli_integer_too_large_for_a_float_in_a_model_file_is_a_data_error(
        small_csv, tmp_path, capsys, kind, field):
    # JSON integers have no size limit; one past the float range (1e400) exits
    # 2 with a typed message, where an lgbn file raised OverflowError.
    message = _HUGE_CBN_MESSAGES.get(field, f"field {field!r} holds an integer too large for a float")
    model = tmp_path / f"{kind}.json"
    assert main(["fit", "--data", str(small_csv), "--model", kind, "--max-parents", "1",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    node = next(i for i, ps in enumerate(doc["parents"]) if ps)
    if field == "coefficients":
        doc[field][node][0] = "HUGE"
    elif field in ("bandwidth", "samples"):
        doc["marginals"][node][field] = "HUGE" if field == "bandwidth" else ["HUGE", 0.5]
    else:
        doc[field][node] = "HUGE"
    model.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 400))
    capsys.readouterr()
    assert main(["eval", "--model-file", str(model), "--data", str(small_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("copulabn: data error: ") and message in err, err


def test_cli_csv_outputs_pin_their_bytes(small_csv, tmp_path, capsys):
    # eval --out, sample and marginals: one header, then every float as its
    # shortest round-trip repr, with \r\n line ends.
    model_out = str(tmp_path / "model.json")
    assert main(["fit", "--data", str(small_csv), "--max-parents", "1", "--out", model_out]) == 0
    outs = {name: tmp_path / f"{name}.csv" for name in ("scores", "sample", "marginals")}
    assert main(["eval", "--model-file", model_out, "--data", str(small_csv),
                 "--out", str(outs["scores"])]) == 0
    assert main(["sample", "--model-file", model_out, "--count", "4", "--seed", "2",
                 "--out", str(outs["sample"])]) == 0
    assert main(["marginals", "--data", str(small_csv), "--grid-points", "3",
                 "--out", str(outs["marginals"])]) == 0
    capsys.readouterr()
    model, data = load_model(model_out), load_csv(small_csv)

    def lines(header, rows):
        return "".join(",".join(map(str, r)) + "\r\n" for r in [header, *rows]).encode()

    scores = score_rows(model, data)
    assert outs["scores"].read_bytes() == lines(
        ["row_index", "log_score"], [[i, repr(float(s))] for i, s in enumerate(scores)])
    drawn = forward_sample(model, 4, 2)
    assert outs["sample"].read_bytes() == lines(
        ["u", "v", "w"], [[repr(float(v)) for v in row] for row in drawn])
    rows = []
    for j, name in enumerate(data.column_names):
        kde = fit_kde(data.values[:, j])
        grid = np.linspace(kde.support_lo, kde.support_hi, 3)
        rows += [[name, *(repr(float(v)) for v in cells)]
                 for cells in zip(grid, kde.pdf(grid), kde.cdf(grid))]
    assert outs["marginals"].read_bytes() == lines(["column", "x", "pdf", "cdf"], rows)


def test_cli_unreadable_input_files_are_data_errors(small_csv, tmp_path, capsys):
    # A field over the csv module's size limit, and a data file and a model
    # file that are not UTF-8, each exit 2 rather than with a traceback.
    big = tmp_path / "big.csv"
    big.write_text("a,b\n1.0,2.0\n3.0," + "1" * 131_073 + "\n")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"caf\xe9,b\n1.0,2.0\n3.0,4.0\n")
    model_out = tmp_path / "model.json"
    assert main(["fit", "--data", str(small_csv), "--max-parents", "1",
                 "--out", str(model_out)]) == 0
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + model_out.read_bytes())
    capsys.readouterr()
    for argv, problem in (
        (["fit", "--data", str(big), "--out", str(tmp_path / "m.json")], "line 3"),
        (["fit", "--data", str(latin), "--out", str(tmp_path / "m.json")], "not UTF-8"),
        (["eval", "--model-file", str(utf16), "--data", str(small_csv)], "not UTF-8"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "data error" in err and problem in err, err
    assert not (tmp_path / "m.json").exists()


def test_cli_reads_a_csv_with_or_without_a_byte_order_mark(small_csv, tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + small_csv.read_bytes())
    model = tmp_path / "model.json"
    for fit_data, eval_data in ((small_csv, marked), (marked, small_csv)):
        assert main(["fit", "--data", str(fit_data), "--max-parents", "1",
                     "--out", str(model)]) == 0
        assert main(["eval", "--model-file", str(model), "--data", str(eval_data)]) == 0


def test_cli_fit_parent_cap_defaults_to_3(small_csv, tmp_path):
    default, three = tmp_path / "default.json", tmp_path / "three.json"
    assert main(["fit", "--data", str(small_csv), "--out", str(default)]) == 0
    assert main(["fit", "--data", str(small_csv), "--max-parents", "3", "--out", str(three)]) == 0
    assert default.read_bytes() == three.read_bytes()


def test_cli_em_that_hits_its_cap_exits_3(small_csv, tmp_path, capsys, monkeypatch):
    # One EM iteration cannot meet the stopping rule (its gain is measured
    # from -inf), so a cap of 1 fails every fit with hidden cells.
    monkeypatch.setattr(gaussian_bn, "_EM_MAX_ITERS", 1)
    out = tmp_path / "lg.json"
    assert main(["fit", "--data", str(small_csv), "--model", "lgbn", "--max-parents", "1",
                 "--missing-fraction", "0.2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: EM still gains inf nats per iteration after 1 iterations" in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
def test_cli_infinite_cell_is_a_data_error(tmp_path, capsys, cell):
    bad = tmp_path / "inf.csv"
    bad.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n0.5,\n2.5,1.5\n")
    assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert f"row 3, column 2 (b): '{cell}' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def _collinear_csv(tmp_path):
    """40 rows where b and c are the same column and a follows them.  The
    search first gives b the parent c; then a's two equal gains, from b and
    from c, tie, and the tie goes to the scan order: a takes b, and its next
    candidate, a | {b, c}, is singular in the linear-Gaussian fit."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=40)
    a_col = x + 0.1 * rng.normal(size=40)
    path = tmp_path / "dup.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c"])
        for i in range(40):
            writer.writerow([repr(float(a_col[i])), repr(float(x[i])), repr(float(x[i]))])
    return path


def _constant_in_split_one_csv(tmp_path):
    """40 rows of a chain a -> b -> c, except that c is constant on the train
    rows of split 1 of 2, so only that split's search meets a constant parent
    candidate, which the linear-Gaussian fit rejects."""
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.normal(size=(40, 3)), axis=1)
    rows = MaskedDataset.from_values(np.arange(40.0)[:, None])
    train, _ = make_split(rows, ExperimentProtocol(num_splits=2), 1)
    x[train.values[:, 0].astype(int), 2] = 2.5
    path = tmp_path / "constant.csv"
    save_csv(MaskedDataset.from_values(x, ("a", "b", "c")), path)
    return path


def test_benchmark_cell_failure_keeps_its_type_and_exit_code(tmp_path, capsys):
    table = _constant_in_split_one_csv(tmp_path)
    out = tmp_path / "bench.csv"
    with pytest.raises(SingularDesignError, match=r"model=lgbn, max_parents=2, .*split=1"):
        run_benchmark(table, ExperimentProtocol(num_splits=2), ["lgbn"], [2], [0.0], out)
    # split 0 finished, so its row was flushed before the error propagated
    assert len(out.read_text().strip().split("\n")) == 2
    out.unlink()
    assert main([
        "benchmark", "--data", str(table), "--model", "lgbn", "--max-parents", "2",
        "--splits", "2", "--out", str(out),
    ]) == 3
    assert "split=1" in capsys.readouterr().err
    assert len(out.read_text().strip().split("\n")) == 2


def test_cli_rejects_out_of_range_counts_as_usage_errors(small_csv, tmp_path, capsys):
    fit = ["fit", "--data", str(small_csv), "--out", str(tmp_path / "m.json")]
    bench = ["benchmark", "--data", str(small_csv), "--out", str(tmp_path / "b.csv")]
    model = str(tmp_path / "good.json")
    assert main(["fit", "--data", str(small_csv), "--max-parents", "1", "--out", model]) == 0
    for argv in (
        fit + ["--max-parents", "-1"],
        fit + ["--splits", "0", "--split-index", "0"],
        bench + ["--max-parents", "-1"],
        bench + ["--max-parents", "1,-2"],
        bench + ["--splits", "0"],
        fit + ["--missing-fraction", "0.2", "--seed", "-1"],
        fit + ["--split-index", "0", "--seed", "-1"],
        ["eval", "--model-file", model, "--data", str(small_csv), "--split-index", "0",
         "--seed", "-1"],
        ["sample", "--model-file", model, "--count", "3", "--seed", "-1",
         "--out", str(tmp_path / "s.csv")],
        bench + ["--seed", "-1"],
        fit + ["--missing-fraction", "0.1,"],
        fit + ["--max-parents", "2,"],
        ["eval", "--model-file", model, "--data", str(small_csv), "--missing-fraction", "nan"],
        bench + ["--missing-fraction", ","],
        bench + ["--max-parents", "1,,x"],
    ):
        assert main(argv) == 1, argv
    # Usage is checked before any input file is read, so a missing one does
    # not turn a usage error into a data error.
    missing = str(tmp_path / "missing.csv")
    fit = ["fit", "--data", missing, "--out", str(tmp_path / "m.json")]
    for argv in (
        fit + ["--max-parents", "-1"],
        fit + ["--max-parents", "1,2"],
        fit + ["--tree"],
        fit + ["--missing-fraction", "2"],
        ["eval", "--model-file", str(tmp_path / "missing.json"), "--data", missing,
         "--missing-fraction", "0.1,0.2"],
        ["sample", "--model-file", str(tmp_path / "missing.json"), "--count", "0",
         "--out", str(tmp_path / "s.csv")],
        ["marginals", "--data", missing, "--grid-points", "1", "--out", str(tmp_path / "g.csv")],
        fit + ["--splits", "2", "--split-index", "2"],
        fit + ["--split-index", "-1"],
        ["eval", "--model-file", str(tmp_path / "missing.json"), "--data", missing,
         "--splits", "3", "--split-index", "3"],
        fit + ["--missing-fraction", "0.2", "--seed", "-1"],
        fit + ["--split-index", "0", "--seed", "-1"],
        ["eval", "--model-file", str(tmp_path / "missing.json"), "--data", missing,
         "--split-index", "0", "--seed", "-1"],
        ["sample", "--model-file", str(tmp_path / "missing.json"), "--count", "3",
         "--seed", "-1", "--out", str(tmp_path / "s.csv")],
        ["benchmark", "--data", missing, "--seed", "-1", "--out", str(tmp_path / "b.csv")],
        fit + ["--missing-fraction", "0.1,"],
        fit + ["--max-parents", "2,"],
        ["eval", "--model-file", str(tmp_path / "missing.json"), "--data", missing,
         "--missing-fraction", "nan"],
        ["benchmark", "--data", missing, "--missing-fraction", ",",
         "--out", str(tmp_path / "b.csv")],
        ["benchmark", "--data", missing, "--max-parents", "1,,x",
         "--out", str(tmp_path / "b.csv")],
    ):
        assert main(argv) == 1, argv
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "b.csv").exists()
    assert not (tmp_path / "s.csv").exists()
    capsys.readouterr()


def test_negative_zero_missing_fraction_reads_as_zero(small_csv, tmp_path, capsys):
    # One grid has one CSV byte form: -0.0 labels its rows 0.0, from the
    # command line and from run_benchmark alike.
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    for fraction, out in zip(("0", "-0.0"), outs):
        assert main([
            "benchmark", "--data", str(small_csv), "--model", "lgbn", "--max-parents", "1",
            f"--missing-fraction={fraction},0.1", "--splits", "2", "--out", str(out),
        ]) == 0
    assert "missing=-0" not in capsys.readouterr().out
    run_benchmark(small_csv, ExperimentProtocol(num_splits=2), ["lgbn"], [1], [-0.0, 0.1], outs[2])
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert math.copysign(1.0, _fraction("-0.0")) == 1.0  # fit and eval read it so too


def test_split_flags_without_a_split_index_are_usage_errors(small_csv, tmp_path, capsys):
    # --splits, --role and --mask-scope describe the split --split-index
    # names; without one they would be ignored, so they are refused before
    # any file is read.
    model = str(tmp_path / "m.json")
    assert main(["fit", "--data", str(small_csv), "--max-parents", "1", "--out", model]) == 0
    missing = (str(tmp_path / "missing.csv"), str(tmp_path / "no.json"))
    for data, model_file in ((str(small_csv), model), missing):
        fit = ["fit", "--data", data, "--out", str(tmp_path / "f.json")]
        ev = ["eval", "--model-file", model_file, "--data", data, "--out", str(tmp_path / "s.csv")]
        for argv in (
            fit + ["--splits", "3"],
            fit + ["--splits", "10", "--missing-fraction", "0.1"],
            ev + ["--splits", "3"],
            ev + ["--role", "test"],
            ev + ["--role", "train", "--missing-fraction", "0.1"],
            ev + ["--mask-scope", "train_and_test"],
            ev + ["--mask-scope", "train_only", "--seed", "2"],
        ):
            assert main(argv) == 1, argv
            assert "without --split-index" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()
    assert not (tmp_path / "s.csv").exists()
    # With a split index each flag is read, and the defaults match the help.
    for argv in (
        ["fit", "--data", str(small_csv), "--split-index", "1", "--splits", "3", "--out", model],
        ["eval", "--model-file", model, "--data", str(small_csv), "--split-index", "1", "--splits", "3",
         "--role", "train", "--mask-scope", "train_and_test"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    outs = []
    for extra in ([], ["--splits", "10", "--role", "test", "--mask-scope", "train_only"]):
        assert main(["eval", "--model-file", model, "--data", str(small_csv),
                     "--split-index", "1", *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_help_and_version_exit_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    capsys.readouterr()


# ------------------------------------------------- every flag is read


# Every optional flag of every command, at a value other than its default:
# (command, argv added to the command's base, the flag's argv, outcome).  The
# flag's argv is compared with the base plus the added argv alone.  Outcome
# "changes": the output bytes (stdout and each file written, bar the
# benchmark manifest's wall-clock timings) differ; "refused": exit 1; any
# other outcome names why the flag may be ignored there, and the bytes must
# then be the same.
_SEED_UNUSED = "--seed where nothing is random"
_NO_MASK = "--mask-scope at missing fraction 0"
_FLAG_CASES = [
    ("fit", [], ["--model", "lgbn"], "changes"),
    ("fit", [], ["--max-parents", "0"], "changes"),
    ("fit", [], ["--missing-fraction", "0.25"], "changes"),
    ("fit", ["--split-index", "5"], ["--splits", "3"], "refused"),
    ("fit", ["--missing-fraction", "0.25"], ["--seed", "1"], "changes"),
    ("fit", [], ["--seed", "1"], _SEED_UNUSED),
    ("fit", [], ["--split-index", "0"], "changes"),
    ("eval", [], ["--missing-fraction", "0.25"], "changes"),
    ("eval", ["--split-index", "5"], ["--splits", "3"], "refused"),
    ("eval", ["--missing-fraction", "0.25"], ["--seed", "1"], "changes"),
    ("eval", [], ["--seed", "1"], _SEED_UNUSED),
    ("eval", [], ["--split-index", "0"], "changes"),
    ("eval", ["--split-index", "0"], ["--role", "train"], "changes"),
    ("eval", ["--split-index", "0", "--missing-fraction", "0.25"], ["--mask-scope", "train_and_test"], "changes"),
    ("eval", ["--split-index", "0"], ["--mask-scope", "train_and_test"], _NO_MASK),
    ("sample", [], ["--seed", "1"], "changes"),
    ("benchmark", [], ["--model", "cbn"], "changes"),
    ("benchmark", [], ["--max-parents", "0"], "changes"),
    ("benchmark", [], ["--missing-fraction", "0.25"], "changes"),
    ("benchmark", [], ["--splits", "3"], "changes"),
    ("benchmark", [], ["--seed", "1"], "changes"),
    ("benchmark", ["--missing-fraction", "0.25"], ["--mask-scope", "train_and_test"], "changes"),
    ("benchmark", [], ["--mask-scope", "train_and_test"], _NO_MASK),
    ("marginals", [], ["--grid-points", "9"], "changes"),
]
# Flags no case sets: they say where the output goes, not what it is.
_WHERE_FLAGS = {"--out"}


def test_the_flag_table_covers_every_optional_flag():
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        optional = {a.option_strings[-1] for a in parser._actions if a.option_strings and not a.required}
        covered = {flag[0] for name, _, flag, _ in _FLAG_CASES if name == command}
        assert optional - {"--help"} - _WHERE_FLAGS == covered, command


@pytest.fixture(scope="module")
def flag_runs(small_csv, tmp_path_factory):
    """Runs one command line in a fresh directory: (exit code, output bytes)."""
    root = tmp_path_factory.mktemp("flags")
    model = root / "model.json"
    assert main(["fit", "--data", str(small_csv), "--out", str(model)]) == 0
    base = {
        "fit": ["--data", str(small_csv), "--out", "model.json"],
        "eval": ["--model-file", str(model), "--data", str(small_csv)],
        "sample": ["--model-file", str(model), "--count", "5", "--out", "rows.csv"],
        "benchmark": ["--data", str(small_csv), "--out", "grid.csv"],
        "marginals": ["--data", str(small_csv), "--out", "grid.csv"],
    }
    runs = {}

    def run(command, argv, capsys, monkeypatch):
        key = (command, *argv)
        if key not in runs:
            workdir = root / f"run{len(runs)}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            capsys.readouterr()
            code = main([command, *base[command], *argv])
            files = [p.name.encode() + p.read_bytes() for p in sorted(workdir.iterdir())
                     if not p.name.endswith(".manifest.json")]
            runs[key] = code, b"\n".join([capsys.readouterr().out.encode(), *files])
        return runs[key]

    return run


@pytest.mark.parametrize(
    "command, extra, flag, outcome", _FLAG_CASES, ids=[" ".join([c, *e, *f]) for c, e, f, _ in _FLAG_CASES]
)
def test_each_flag_changes_the_output_or_is_refused(flag_runs, capsys, monkeypatch, command, extra, flag, outcome):
    base_code, base_bytes = flag_runs(command, extra, capsys, monkeypatch)
    assert base_code == 0
    code, out = flag_runs(command, [*extra, *flag], capsys, monkeypatch)
    if outcome == "refused":
        assert code == 1
    elif outcome == "changes":
        assert code == 0 and out != base_bytes
    else:
        assert outcome in (_SEED_UNUSED, _NO_MASK)
        assert code == 0 and out == base_bytes
