"""Graph container, dataset container, CSV loading, splits, and masking."""

import os
import pickle
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from copulabn import data as data_module
from copulabn.dag import Dag
from copulabn.data import (
    ExperimentProtocol,
    MaskedDataset,
    apply_missing_mask,
    derive_seed,
    load_csv,
    make_split,
    prepare_communities_csv,
    save_csv,
)
from copulabn.errors import (
    DegenerateColumnError,
    EmptyInputError,
    OutOfRangeError,
    ParseError,
    ValidationError,
)

from conftest import csv_reader_load


# ---------------------------------------------------------------- Dag


def test_dag_constructors_and_edge_views():
    dag = Dag.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    assert dag.parents == ((), (0,), (1,), (0,))
    assert set(dag.edges()) == {(0, 1), (1, 2), (0, 3)}
    assert dag.skeleton() == frozenset({(0, 1), (1, 2), (0, 3)})
    assert dag.num_edges() == 3
    assert Dag.chain(3).parents == ((), (0,), (1,))
    assert Dag.empty(2).parents == ((), ())


def test_dag_topological_order_puts_parents_first():
    rng = np.random.default_rng(30)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        perm = rng.permutation(n)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append((int(perm[i]), int(perm[j])))
        dag = Dag.from_edges(n, edges)
        order = dag.topological_order
        position = {v: k for k, v in enumerate(order)}
        assert sorted(order) == list(range(n))
        for child in range(n):
            for parent in dag.parents[child]:
                assert position[parent] < position[child]


def test_dag_topological_order_places_the_smallest_ready_node_first():
    # forward_sample draws nodes in this order, so it is part of the output.
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        perm = rng.permutation(n)
        density = rng.random()
        edges = [
            (int(perm[i]), int(perm[j]))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        dag = Dag.from_edges(n, [edges[k] for k in rng.permutation(len(edges))])
        placed = []
        while len(placed) < n:
            placed.append(min(
                v for v in range(n)
                if v not in placed and all(p in placed for p in dag.parents[v])
            ))
        assert dag.topological_order == tuple(placed)


def test_dag_rejects_cycles_self_loops_and_bad_indices():
    with pytest.raises(ValidationError):
        Dag.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValidationError):
        Dag.from_edges(2, [(0, 0)])
    with pytest.raises(ValidationError):
        Dag.from_edges(2, [(0, 1), (0, 1)])
    with pytest.raises(ValidationError):
        Dag.from_edges(2, [(5, 1)])
    with pytest.raises(ValidationError):
        Dag(num_vars=0, parents=())


@pytest.mark.parametrize(
    "reads", [(), ("topological_order",), ("ancestors",), ("ancestors", "topological_order")]
)
def test_dag_pickles_the_same_bytes_whichever_caches_were_read(reads):
    def build():
        return Dag.from_edges(5, [(3, 0), (0, 2), (4, 2), (2, 1)])

    dag = build()
    for name in reads:
        getattr(dag, name)
    data = pickle.dumps(dag)
    assert data == pickle.dumps(build())
    back = pickle.loads(data)
    assert back == dag and back.parents == ((3,), (2,), (0, 4), (), ())
    assert back.topological_order == dag.topological_order
    assert back.ancestors == dag.ancestors


# ------------------------------------------------------ MaskedDataset


def test_dataset_canonicalizes_nan_and_protects_arrays():
    values = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]])
    data = MaskedDataset.from_values(values, ["a", "b"])
    assert data.num_rows == 3 and data.num_cols == 2
    assert not data.fully_observed
    np.testing.assert_array_equal(data.observed, [[True, True], [False, True], [True, True]])
    assert np.isnan(data.values[1, 0])
    with pytest.raises(ValueError):
        data.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.observed[0, 0] = False


def test_dataset_hidden_cells_are_nan_even_when_mask_given():
    values = np.array([[1.0, 2.0], [7.0, 3.0], [4.0, 5.0]])
    observed = np.array([[True, True], [False, True], [True, True]])
    data = MaskedDataset(values, observed, ("a", "b"))
    assert np.isnan(data.values[1, 0])
    assert data.values[2, 0] == 4.0


def test_dataset_allows_sparse_columns_but_load_csv_rejects_them(tmp_path):
    # the container carries any mask (evaluation rows may hide whole columns) ...
    values = np.array([[1.0, 1.0], [np.nan, 2.0], [np.nan, 3.0]])
    data = MaskedDataset.from_values(values)
    assert data.observed[:, 0].sum() == 1
    # ... but a loaded training table must keep every column estimable
    path = tmp_path / "sparse.csv"
    path.write_text("a,b\n1.0,1.0\n,2.0\n,3.0\n")
    with pytest.raises(DegenerateColumnError):
        load_csv(path)


def test_dataset_row_and_column_selection():
    values = np.arange(12.0).reshape(4, 3)
    data = MaskedDataset.from_values(values, ["a", "b", "c"])
    rows = data.take_rows(np.array([0, 2]))
    np.testing.assert_array_equal(rows.values, values[[0, 2]])
    cols = data.take_columns([2, 0])
    assert cols.column_names == ("c", "a")
    np.testing.assert_array_equal(cols.values, values[:, [2, 0]])


# ------------------------------------------------------------- CSV IO


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_happy_path(tmp_path):
    path = _write(tmp_path, "ok.csv", "x,y\n1.5,2\n,3\n2.5,4\n")
    data = load_csv(path)
    assert data.column_names == ("x", "y")
    assert data.num_rows == 3
    assert not data.observed[1, 0]
    np.testing.assert_array_equal(data.values[:, 1], [2.0, 3.0, 4.0])


def test_load_csv_reads_utf8_with_or_without_a_byte_order_mark(tmp_path):
    text = "a,b\n1.5,2\n,3\n2.5,4\n"
    plain = _write(tmp_path, "plain.csv", text)
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    a, b = load_csv(plain), load_csv(marked)
    assert a.column_names == b.column_names == ("a", "b")
    assert a.values.tobytes() == b.values.tobytes()
    np.testing.assert_array_equal(a.observed, b.observed)


def test_load_csv_reports_cell_position_on_bad_token(tmp_path):
    path = _write(tmp_path, "bad.csv", "x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    message = str(err.value)
    assert "row 3" in message and "oops" in message


def test_load_csv_parses_cells_as_python_floats_and_pins_its_messages(tmp_path):
    # Cells parse as Python float() does: surrounding blanks and underscores
    # are accepted; an empty or blank cell is hidden.
    path = _write(tmp_path, "cells.csv", "a,b,c\n 1.5 ,1_000,1e-3\n,2,  \n4,5,6\n\n7,8,9\n")
    data = load_csv(path)
    np.testing.assert_array_equal(
        data.values, [[1.5, 1000.0, 1e-3], [np.nan, 2.0, np.nan], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    )
    assert data.observed.tolist() == [[True] * 3, [False, True, False], [True] * 3, [True] * 3]
    # A cell that is not a finite number is rejected with its 1-based row
    # (blank lines count) and column; the first bad cell is reported, even
    # ahead of a ragged row after it.
    for text, problem in (
        ("a,b\n1,2\n\n3, nan \n", "row 4, column 2 (b): 'nan' is not a finite number"),
        ("a,b\n1,2\n-inf,4\n", "row 3, column 1 (a): '-inf' is not a finite number"),
        ("a,b\n1,abc\n3,inf\n", "row 2, column 2 (b): cannot parse 'abc' as a number"),
        ("a,b\n1,2\n3,x\n5\n", "row 3, column 2 (b): cannot parse 'x' as a number"),
        ("a,b\n1,2\n5\n3,x\n", "row 3 has 1 cells, expected 2"),
    ):
        path = _write(tmp_path, "bad.csv", text)
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {problem}"


def test_load_csv_rejects_structural_problems(tmp_path):
    with pytest.raises(ParseError):
        load_csv(_write(tmp_path, "dup.csv", "x,x\n1,2\n3,4\n"))
    with pytest.raises(ParseError):
        load_csv(_write(tmp_path, "anon.csv", "x,\n1,2\n3,4\n"))
    with pytest.raises(ParseError):
        load_csv(_write(tmp_path, "ragged.csv", "x,y\n1,2\n3\n"))
    with pytest.raises(EmptyInputError):
        load_csv(_write(tmp_path, "empty.csv", "x,y\n"))
    with pytest.raises(DegenerateColumnError):
        load_csv(_write(tmp_path, "const.csv", "x,y\n1,2\n1,3\n1,4\n"))
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv")


def test_csv_round_trip_preserves_values_and_mask(tmp_path):
    rng = np.random.default_rng(31)
    values = rng.normal(size=(20, 3))
    values[rng.random(values.shape) < 0.2] = np.nan
    values[:2] = rng.normal(size=(2, 3))  # keep every column estimable
    data = MaskedDataset.from_values(values, ["a", "b", "c"])
    path = tmp_path / "round.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert back.column_names == data.column_names
    np.testing.assert_array_equal(back.observed, data.observed)
    np.testing.assert_array_equal(
        back.values[back.observed], data.values[data.observed]
    )


def test_load_csv_reports_unreadable_lines_after_earlier_bad_cells(tmp_path):
    # A field over the csv module's size limit is a ParseError naming its line;
    # a bad cell on an earlier row is still reported first.  Bytes that are not
    # UTF-8 fail the whole chunk (8 KB) the decoder reads them in, so a bad cell
    # reads first only when a chunk boundary lies between it and the bad byte.
    big = "1" * 131_073
    path = _write(tmp_path, "big.csv", f"a,b\n1,2\n3,{big}\n")
    with pytest.raises(ParseError, match=r"big\.csv: line 3: field larger than field limit"):
        load_csv(path)
    path = _write(tmp_path, "big.csv", f"a,b\n1,x\n3,{big}\n")
    with pytest.raises(ParseError, match=r"row 2, column 2 \(b\): cannot parse 'x'"):
        load_csv(path)
    path.write_bytes(b"a\xe9,b\n1,2\n3,4\n")
    with pytest.raises(ParseError, match=r"big\.csv: not UTF-8 text \(invalid continuation"):
        load_csv(path)
    path.write_bytes(b"a,b\n1,x\n3,\xe9\n")
    with pytest.raises(ParseError, match=r"big\.csv: not UTF-8 text") as err:
        load_csv(path)
    assert "position" not in str(err.value)
    path.write_bytes(b"a,b\n1,x\n" + b"3,4\n" * 25_000 + b"3,\xe9\n")
    with pytest.raises(ParseError, match=r"row 2, column 2 \(b\): cannot parse 'x'"):
        load_csv(path)
    path.write_bytes(b"a,b\n1,2\n" + b"3,4\n" * 25_000 + b"3,\xe9\n")
    with pytest.raises(ParseError, match=r"big\.csv: not UTF-8 text"):
        load_csv(path)


# Signed zero, subnormals, the largest magnitudes, and values whose shortest
# decimal lies on or near a rounding tie.
_EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7e308, -1.7e308,
                0.5, 2.5, -1.5, 0.1, 0.1 + 0.2, 1e23, 9007199254740993.0, 2.675)
_CELLS = st.one_of(st.none(), st.sampled_from(_EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_CELLS, min_size=n, max_size=n), min_size=2, max_size=8)))
def test_save_csv_round_trips_every_value_bitwise(tmp_path_factory, rows):
    # Hidden cells stay hidden, observed ones keep their bits, and header
    # names that need quoting (a comma, a quote) survive.
    values = np.array([[np.nan if v is None else v for v in row] for row in rows], float)
    for col in values.T:
        assume(len(set(col[~np.isnan(col)].tolist())) >= 2)  # load_csv's column contract
    names = ("a,b", 'say "hi"', "plain", "x y")[: values.shape[1]]
    data = MaskedDataset.from_values(values, names)
    path = tmp_path_factory.mktemp("round") / "round.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert back.column_names == names
    np.testing.assert_array_equal(back.observed, data.observed)
    assert back.values.view(np.uint64)[back.observed].tolist() == (
        data.values.view(np.uint64)[data.observed].tolist())


def _load_outcome(path):
    """What loading ``path`` gives: the dataset's names, mask and value bits,
    or the exception's type and message.  Any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = load_csv(path)
        except Exception as err:
            new = (type(err), str(err))
        else:
            new = (data.column_names, data.observed.tobytes(), data.values.tobytes())
        try:
            data = csv_reader_load(path)
        except Exception as err:
            return new, (type(err), str(err))
        return new, (data.column_names, data.observed.tobytes(), data.values.tobytes())


# Cells the one-shot parse reads; cells only the csv pass reads as float()
# does (underscores, padding, quotes, empty and blank cells); bad cells.
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["\xa01.5\xa0", "-0", "1e-320", "2.5E+3"]),
)
_READABLE_CELLS = st.sampled_from(["1_000", " 1.5 ", "", " ", '"1.5"'])
_BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e999", "#1", "0x10", "abc"])


@st.composite
def _csv_texts(draw):
    """The text of a CSV file: a header, then rows of cells, with the line
    ends, blank lines, byte-order mark and ragged rows a user's file may have."""
    num_cols = draw(st.integers(1, 4))
    cells = draw(st.sampled_from([_PLAIN_CELLS, st.one_of(_PLAIN_CELLS, _READABLE_CELLS),
                                  st.one_of(_PLAIN_CELLS, _READABLE_CELLS, _BAD_CELLS)]))
    rows = draw(st.lists(st.lists(cells, min_size=num_cols, max_size=num_cols), min_size=1, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    names = [f"c{j}" for j in range(num_cols)]
    names[0] = draw(st.sampled_from(["c0", '"c,0"', f'"c{end}0"', ' "c0"']))
    lines = [",".join(row) for row in rows]
    if draw(st.integers(0, 3)) == 0:  # one ragged row
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i] + ",1" if draw(st.booleans()) else lines[i].rpartition(",")[0]
    for i in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(i, "")
    text = end.join([",".join(names), *lines]) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_csv_texts())
def test_load_csv_reads_what_the_csv_reader_reads(tmp_path_factory, text):
    # The one-shot parse, the path choice and the csv pass together give the
    # csv reader's values, mask and names, or its exception and message.
    path = tmp_path_factory.mktemp("prop") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    new, old = _load_outcome(path)
    assert new == old


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n3," + "0" * 131_073 + "\n4,5\n",
    "a,b\n1,2\n3," + " " * 131_073 + "1\n4,5\n",
    "a\n1\n" + "0" * 131_073 + "\n3\n",
    "a,b\n1,2\n3," + "0" * 131_072 + "\n4,5\n",
])
def test_a_field_over_the_csv_limit_reads_as_the_csv_reader_reads_it(tmp_path, text):
    # np.loadtxt has no field limit; a field over the csv module's is refused
    # as before, one at the limit is read.
    path = _write(tmp_path, "long.csv", text)
    new, old = _load_outcome(path)
    assert new == old


@pytest.mark.parametrize("text, error", [
    ("x,y\n", EmptyInputError),
    ("x,y\r\n\r\n\n", EmptyInputError),
    ("x,y\n1,2\n", DegenerateColumnError),
    ("x\n1\n", DegenerateColumnError),
    ("x\n1\n1\n", DegenerateColumnError),
    ("x\n1\n\n2\n", None),
    ("x\n1\nnan\n", ParseError),
])
def test_no_warning_escapes_load_csv(tmp_path, text, error):
    # np.loadtxt warns on a body with no rows; load_csv raises its own error.
    path = _write(tmp_path, "small.csv", text)
    new, old = _load_outcome(path)
    assert new == old
    assert (new[0] is error) if error else new[0] == ("x",)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_path_is_chosen_before_parsing(tmp_path, monkeypatch):
    # A complete table that save_csv writes takes one np.loadtxt call and no
    # csv pass; one with hidden cells, or an underscore, goes straight to the
    # csv pass and never pays for a refused fast parse.
    fast = _count_calls(monkeypatch, np, "loadtxt")
    rows = _count_calls(monkeypatch, data_module, "_parse_rows")
    values = np.random.default_rng(3).normal(size=(300, 4))
    save_csv(MaskedDataset.from_values(values, "abcd"), tmp_path / "full.csv")
    assert load_csv(tmp_path / "full.csv").values.tobytes() == values.tobytes()
    assert (fast, rows) == (["loadtxt"], [])
    values[-1, -1] = np.nan  # one hidden cell, in the last row
    save_csv(MaskedDataset.from_values(values, "abcd"), tmp_path / "hidden.csv")
    _write(tmp_path, "underscore.csv", "a,b\n1,2\n3,4_0\n")
    for name in ("hidden.csv", "underscore.csv"):
        fast.clear()
        rows.clear()
        new, old = _load_outcome(tmp_path / name)
        assert new == old
        assert (fast, rows) == ([], ["_parse_rows"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_csv_reads_a_pipe_once(tmp_path):
    # A pipe cannot seek back to its body, so the csv pass reads it as it comes.
    text = "a,b\n1.5,2\n,3\n2.5,4\n"
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    data = load_csv(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    expected = load_csv(_write(tmp_path, "file.csv", text))
    assert data.values.tobytes() == expected.values.tobytes()
    assert data.observed.tolist() == expected.observed.tolist()


# ------------------------------------------------------------- splits


def _toy_data(num_rows=40, num_cols=2, seed=32):
    rng = np.random.default_rng(seed)
    return MaskedDataset.from_values(rng.normal(size=(num_rows, num_cols)))


def test_make_split_is_deterministic_disjoint_and_exhaustive():
    data = _toy_data(41)
    protocol = ExperimentProtocol(num_splits=10, base_seed=7)
    train_a, test_a = make_split(data, protocol, 3)
    train_b, test_b = make_split(data, protocol, 3)
    np.testing.assert_array_equal(train_a.values, train_b.values)
    np.testing.assert_array_equal(test_a.values, test_b.values)
    assert train_a.num_rows == int(np.ceil(41 * 0.5))
    assert train_a.num_rows + test_a.num_rows == 41
    # train and test rows together are exactly the original rows
    combined = np.vstack([train_a.values, test_a.values])
    assert combined.shape == data.values.shape
    original = {tuple(row) for row in data.values}
    assert {tuple(row) for row in combined} == original


def test_make_split_varies_with_index_and_seed():
    data = _toy_data(60)
    protocol = ExperimentProtocol(num_splits=10, base_seed=7)
    train_0, _ = make_split(data, protocol, 0)
    train_1, _ = make_split(data, protocol, 1)
    assert not np.array_equal(train_0.values, train_1.values)
    other = ExperimentProtocol(num_splits=10, base_seed=8)
    train_0b, _ = make_split(data, other, 0)
    assert not np.array_equal(train_0.values, train_0b.values)


def test_make_split_validates_index():
    data = _toy_data()
    protocol = ExperimentProtocol(num_splits=5)
    with pytest.raises(OutOfRangeError):
        make_split(data, protocol, 5)
    for bad in (-1, 1.5, True):
        with pytest.raises(OutOfRangeError):
            make_split(data, protocol, bad)
    assert make_split(data, protocol, np.int64(2))[0].values.tobytes() == make_split(
        data, protocol, 2
    )[0].values.tobytes()


def test_protocol_validation():
    with pytest.raises(ValidationError):
        ExperimentProtocol(num_splits=0)
    with pytest.raises(ValidationError):
        ExperimentProtocol(mask_scope="everything")
    # Counts and seeds are integers: no float, boolean, NaN or negative seed
    # slips through to fail later as a bare TypeError or ValueError.
    for kwargs in (
        dict(num_splits=1.5), dict(num_splits=True), dict(num_splits=float("nan")),
        dict(num_splits=2.0), dict(base_seed=1.5), dict(base_seed=-3), dict(base_seed=True),
    ):
        with pytest.raises(ValidationError, match="must be"):
            ExperimentProtocol(**kwargs)
    protocol = ExperimentProtocol(num_splits=np.int64(3), base_seed=np.uint32(7))
    assert (type(protocol.num_splits), type(protocol.base_seed)) == (int, int)
    assert protocol == ExperimentProtocol(num_splits=3, base_seed=7)
    data = _toy_data(10, 2, seed=1)
    for bad in (-1, 1.5, True, None):
        with pytest.raises(OutOfRangeError):
            derive_seed(3, bad)
        with pytest.raises(OutOfRangeError):
            apply_missing_mask(data, 0.2, bad)
    assert derive_seed(np.int64(3), 4) == derive_seed(3, np.uint8(4))
    np.testing.assert_array_equal(
        apply_missing_mask(data, 0.2, np.int64(5)).observed, apply_missing_mask(data, 0.2, 5).observed
    )


# ------------------------------------------------------------ masking


def test_apply_missing_mask_is_deterministic_and_calibrated():
    data = _toy_data(400, 5, seed=33)
    masked_a = apply_missing_mask(data, 0.2, seed=9)
    masked_b = apply_missing_mask(data, 0.2, seed=9)
    np.testing.assert_array_equal(masked_a.observed, masked_b.observed)
    hidden = (~masked_a.observed).sum()
    total = data.observed.sum()
    # binomial(2000, 0.2): mean 400, sd ~17.9; allow 4 sigma
    assert abs(hidden - 0.2 * total) < 4 * np.sqrt(total * 0.2 * 0.8)
    different = apply_missing_mask(data, 0.2, seed=10)
    assert not np.array_equal(masked_a.observed, different.observed)


def test_apply_missing_mask_only_hides_and_keeps_values():
    data = _toy_data(50, 3, seed=34)
    masked = apply_missing_mask(data, 0.3, seed=1)
    assert np.all(masked.observed <= data.observed)
    still = masked.observed
    np.testing.assert_array_equal(masked.values[still], data.values[still])


def test_apply_missing_mask_keeps_columns_estimable():
    data = _toy_data(6, 2, seed=35)
    for seed in range(20):
        masked = apply_missing_mask(data, 0.9, seed=seed)
        assert masked.observed.sum(axis=0).min() >= 2


def test_apply_missing_mask_zero_fraction_is_identity():
    data = _toy_data(30)
    masked = apply_missing_mask(data, 0.0, seed=4)
    np.testing.assert_array_equal(masked.observed, data.observed)
    with pytest.raises(OutOfRangeError):
        apply_missing_mask(data, 1.0, seed=4)
    with pytest.raises(OutOfRangeError):
        apply_missing_mask(data, -0.1, seed=4)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(3, 1, 0) == derive_seed(3, 1, 0)
    assert derive_seed(3, 1, 0) != derive_seed(3, 2, 0)
    assert derive_seed(3, 1, 0) != derive_seed(4, 1, 0)
    assert 0 <= derive_seed(123, 5) < 2**32


# ----------------------------------------------- crime preprocessing


def test_prepare_communities_csv_drops_identifiers_and_sparse_columns(tmp_path):
    names = "\n".join(
        [
            "@relation communities",
            "@attribute state numeric",
            "@attribute communityname string",
            "@attribute fold numeric",
            "@attribute popDens numeric",
            "@attribute medIncome numeric",
            "@attribute sparseCol numeric",
            "@attribute target numeric",
            "@data",
        ]
    )
    rows = []
    rng = np.random.default_rng(36)
    for i in range(12):
        sparse = "?" if i < 8 else f"{rng.random():.3f}"
        rows.append(
            f"{i%3},place{i},{i%5},{rng.random():.3f},{rng.random():.3f},{sparse},{rng.random():.3f}"
        )
    data_path = _write(tmp_path, "communities.data", "\n".join(rows) + "\n")
    names_path = _write(tmp_path, "communities.names", names)
    out_path = tmp_path / "crime.csv"
    kept = prepare_communities_csv(data_path, names_path, out_path)
    data = load_csv(out_path)
    assert data.column_names == ("popDens", "medIncome", "target")
    assert kept == ["popDens", "medIncome", "target"]
    assert data.num_rows == 12


def test_prepare_communities_csv_reports_unreadable_files(tmp_path):
    data_path = tmp_path / "communities.data"
    out_path = tmp_path / "crime.csv"
    for raw, problem in (
        (b"1,caf\xe9,3\n4,5,6\n", "not UTF-8 text"),
        (b"1,2,3\n4," + b"5" * 131_073 + b",6\n", "line 2: field larger than field limit"),
    ):
        data_path.write_bytes(raw)
        with pytest.raises(ParseError, match=re.escape(f"{data_path}: {problem}")):
            prepare_communities_csv(data_path, None, out_path)
    assert not out_path.exists()
