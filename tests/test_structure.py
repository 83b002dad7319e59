"""Greedy structure search: penalties, family scores, and recovery."""

import contextlib
import itertools
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from copulabn import gaussian_bn, structure
from copulabn.benchmark import fit_model
from copulabn.cbn import _score_table, fit_missing, log_density_rows
from copulabn.copula import family_stats, ratio_log_from_z
from copulabn.dag import Dag
from copulabn.data import MaskedDataset, apply_missing_mask
from copulabn.errors import ConvergenceError, InvalidInputError, OutOfRangeError, ValidationError
from copulabn.gaussian_bn import _fit_from_moments, em_fit_lg, expected_moments, log_marginal_lg_rows
from copulabn.marginals import KdeMarginal, fit_kde
from copulabn.model_io import serialize
from copulabn.structure import (
    ScoredStructure,
    SearchConfig,
    _copula_score,
    _search,
    bic_penalty,
    greedy_search,
)

from conftest import chain_scores, cycle_warps, rescan_search, warp_columns


def _chain_dataset(rho=0.5, num_vars=5, num_rows=2000, seed=0, warp=True):
    rng = np.random.default_rng(seed)
    z = chain_scores(rho, num_vars, num_rows, rng)
    x = warp_columns(z, cycle_warps(num_vars)) if warp else z
    return MaskedDataset.from_values(x)


def _cbn_score(data):
    return _copula_score(_score_table(data).second, data.num_rows)


def _independent_dataset(num_vars=4, num_rows=1500, seed=1):
    rng = np.random.default_rng(seed)
    x = warp_columns(rng.standard_normal((num_rows, num_vars)), cycle_warps(num_vars))
    return MaskedDataset.from_values(x)


# ------------------------------------------------------------ penalty


def test_bic_penalty_hand_values():
    np.testing.assert_allclose(bic_penalty(5, 100), 0.5 * np.log(100) * 5, rtol=1e-15)
    assert bic_penalty(0, 10) == 0.0
    # linear in the parameter count
    np.testing.assert_allclose(bic_penalty(7, 50), 7 * bic_penalty(1, 50), rtol=1e-15)


def test_bic_penalty_rejects_bad_counts():
    with pytest.raises(OutOfRangeError):
        bic_penalty(-1, 100)
    with pytest.raises(OutOfRangeError):
        bic_penalty(3, 0)


# ------------------------------------------------------- search config


def test_config_defaults_and_validation():
    assert SearchConfig().max_parents == 3
    assert SearchConfig(max_parents=2).max_parents == 2
    # A numpy integer is stored as an int, which the benchmark manifest's JSON takes.
    assert type(SearchConfig(max_parents=np.int64(2)).max_parents) is int
    assert SearchConfig(max_parents=np.uint8(2)).max_parents == 2
    # A fractional cap would search as its ceiling, nan as no cap at all, and a
    # boolean is not a count: the cap must be a non-negative integer.
    for cap in (-1, 1.5, 2.0, float("nan"), float("inf"), True, False, np.True_, "2", None):
        with pytest.raises(ValidationError, match="max_parents must be a non-negative integer"):
            SearchConfig(max_parents=cap)


# -------------------------------------------------------- family score


def test_family_score_matches_independent_computation():
    data = _chain_dataset(num_rows=400, num_vars=3, seed=2)
    marginals = tuple(fit_kde(data.values[:, j]) for j in range(3))
    z = np.column_stack(
        [ndtri(marginals[j].cdf(data.values[:, j])) for j in range(3)]
    )
    got = _cbn_score(data)(1, [(0,)])[0]

    (rho,), (value,) = family_stats(z.T @ z, 400, [(1, 0)]).fit()
    np.testing.assert_allclose(got, value - bic_penalty(1, 400), rtol=0, atol=1e-9)
    # the fitted objective is literally the summed log ratio terms
    np.testing.assert_allclose(
        value, ratio_log_from_z(rho, z[:, [1, 0]]).sum(), rtol=0, atol=1e-9
    )


def test_family_score_is_zero_without_parents():
    score = _cbn_score(_chain_dataset(num_rows=100, num_vars=3, seed=3))
    assert score(0, [()])[0] == 0.0


def test_family_score_is_order_symmetric_in_parents():
    # the uniform-correlation family is exchangeable, so parent order
    # cannot matter, and a one-parent family ties with its reversal
    score = _cbn_score(_chain_dataset(num_rows=300, num_vars=4, seed=4))
    assert score(3, [(0, 1)])[0] == score(3, [(1, 0)])[0]
    assert score(2, [(0,)])[0] == score(0, [(2,)])[0]


# ---------------------------------------------------- score invariants


@contextlib.contextmanager
def _recorded_searches():
    """Every engine run inside the block as (score, start, result), in call
    order; ``start`` is the empty graph for a cold run."""
    runs = []
    search = structure._search

    def recorded(num_vars, score, config, start=None):
        result = search(num_vars, score, config, start)
        runs.append((score, start or Dag.empty(num_vars), result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_search", recorded)
        yield runs


def _check_scores(result, runs):
    """The result is the last engine run's, and its scores are the penalized
    family scores that run's score function gives the returned parents."""
    score, _, last = runs[-1]
    assert last is result
    assert result.score == sum(result.per_family_scores)
    assert result.per_family_scores == tuple(
        score(i, [ps])[0] for i, ps in enumerate(result.dag.parents)
    )


def _graph_score(score, dag):
    """A graph's total score under ``score``, summed over its families."""
    return sum(score(i, [tuple(sorted(ps))])[0] for i, ps in enumerate(dag.parents))


def test_score_decomposes_over_families():
    data = _chain_dataset(num_rows=600, num_vars=4, seed=5)
    for kind in ("cbn", "lgbn"):
        with _recorded_searches() as runs:
            result = greedy_search(data, SearchConfig(max_parents=2), model_kind=kind)
        assert isinstance(result, ScoredStructure)
        assert result.dag.num_edges() > 0
        _check_scores(result, runs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cbn", "lgbn"]),
    num_vars=st.integers(2, 5),
    num_rows=st.integers(20, 120),
    rho=st.floats(-0.8, 0.8),
    missing=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_never_scores_below_the_empty_graph(kind, num_vars, num_rows, rho, missing, seed):
    rng = np.random.default_rng(seed)
    x = warp_columns(chain_scores(rho, num_vars, num_rows, rng), cycle_warps(num_vars))
    data = apply_missing_mask(MaskedDataset.from_values(x), missing, seed=seed)
    with _recorded_searches() as runs:
        result = greedy_search(data, SearchConfig(max_parents=2), model_kind=kind)
    _check_scores(result, runs)
    # The first run of the engine starts from the empty graph; every run,
    # structural-EM rounds included, accepts only improving moves from its start.
    assert runs[0][1] == Dag.empty(num_vars)
    for score, start, run in runs:
        begin = _graph_score(score, start)
        assert run.score >= begin - 1e-9 * max(1.0, abs(begin))
    if kind == "cbn":
        assert result.score >= -1e-9


def test_cbn_search_never_evaluates_a_marginal_density(monkeypatch):
    # Marginal log densities are the same for every structure, so the
    # copula search needs only the normal scores.
    def refuse(self, x):
        raise AssertionError("the search evaluated a marginal density")

    monkeypatch.setattr(KdeMarginal, "pdf", refuse)
    monkeypatch.setattr(KdeMarginal, "log_pdf", refuse)
    data = apply_missing_mask(_chain_dataset(num_rows=300, num_vars=4, seed=14), 0.2, seed=15)
    result = greedy_search(data, SearchConfig(max_parents=2), model_kind="cbn")
    assert result.dag.num_edges() > 0


# ---------------------------------------------------------- legality


def _builds_a_dag(parents):
    try:
        Dag(len(parents), tuple(tuple(sorted(ps)) for ps in parents))
    except ValidationError:
        return False
    return True


def _brute_force_moves(parents, max_parents):
    """(3, child, parent) masks of the additions, deletions and reversals of
    parent->child whose result is a DAG within the cap, move by move."""
    n = len(parents)
    moves = np.zeros((3, n, n), dtype=bool)
    for child, parent in itertools.permutations(range(n), 2):
        changed = [set(ps) for ps in parents]
        if parent in parents[child]:
            moves[1, child, parent] = True
            changed[child].remove(parent)
            changed[parent].add(child)
            moves[2, child, parent] = len(parents[parent]) < max_parents and _builds_a_dag(changed)
        else:
            changed[child].add(parent)
            moves[0, child, parent] = len(parents[child]) < max_parents and _builds_a_dag(changed)
    return moves


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_vars=st.integers(1, 12),
    max_parents=st.integers(0, 12),
    num_moves=st.integers(0, 60),
    cut_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_graph_matches_a_fresh_dag_after_every_move(
    num_vars, max_parents, num_moves, cut_share, seed
):
    # A random walk of legal moves on the search's in-place graph.  A share
    # of the steps deletes an edge that is the only path from its parent to
    # its child, so the ancestors below it must shrink.  After every move the
    # graph's state must equal that of a fresh Dag of its parent sets, and
    # its masks the moves whose result is a DAG within the cap.
    rng = np.random.default_rng(seed)
    graph = structure._Graph(num_vars)
    parents = [set() for _ in range(num_vars)]
    for _ in range(num_moves + 1):
        dag = Dag(num_vars, tuple(tuple(sorted(ps)) for ps in parents))
        assert graph.parents == list(dag.parents)
        assert graph.bits == [sum(1 << p for p in ps) for ps in parents]
        edges = np.zeros((num_vars, num_vars))
        for child, ps in enumerate(parents):
            edges[child, list(ps)] = 1.0
        assert graph.edges.tobytes() == edges.tobytes()
        for node in range(num_vars):
            reached, stack = set(), list(parents[node])
            while stack:
                p = stack.pop()
                if p not in reached:
                    reached.add(p)
                    stack.extend(parents[p])
            assert dag.ancestors[node] == sum(1 << p for p in reached)
            row = np.zeros(num_vars)
            row[[node, *reached]] = 1.0
            assert graph.reach[node].tobytes() == row.tobytes()
        legal = graph.legal(max_parents)
        assert legal.dtype == bool
        np.testing.assert_array_equal(legal, _brute_force_moves(parents, max_parents))

        moves = [tuple(move) for move in np.argwhere(legal).tolist()]
        if not moves:
            break
        cuts = [
            (kind, child, parent)
            for kind, child, parent in moves
            if kind == 1 and not any(dag.ancestors[q] >> parent & 1 for q in parents[child])
        ]
        pool = cuts if cuts and rng.random() < cut_share else moves
        kind, child, parent = pool[rng.integers(len(pool))]
        (graph.add, graph.delete, graph.reverse)[kind](child, parent)
        if kind == 0:
            parents[child].add(parent)
        else:
            parents[child].remove(parent)
        if kind == 2:
            parents[parent].add(child)


def _reference_search(num_vars, score, max_parents, tolerance, start):
    """Textbook best ascent from the parent sets ``start``: enumerate every
    addition, deletion and reversal in scan order, keep those whose result is
    a DAG within the cap, and, while the best gain exceeds ``tolerance``,
    apply the first move whose gain is within ``tolerance`` of it.  Like the
    engine, it gives up after ``_MAX_MOVES`` accepted moves, since at a
    tolerance of 0 a gain of rounding size can flip a reversal back and
    forth; the third value says whether it stopped there with a move that
    gains more than ``tolerance`` still left."""
    parents = [set(ps) for ps in start]

    def family(node, ps):
        return score(node, tuple(sorted(ps)))

    current = [family(i, ps) for i, ps in enumerate(parents)]
    for accepted in range(structure._MAX_MOVES + 1):
        adds, deletes, reversals = [], [], []
        for child in range(num_vars):
            for parent in range(num_vars):
                if parent == child:
                    continue
                changed = [set(ps) for ps in parents]
                if parent in parents[child]:
                    changed[child].remove(parent)
                    gain = family(child, changed[child]) - current[child]
                    deletes.append((gain, changed))
                    changed = [set(ps) for ps in changed]
                    changed[parent].add(child)
                    if len(changed[parent]) <= max_parents and _builds_a_dag(changed):
                        gain = (
                            family(child, changed[child])
                            - current[child]
                            + family(parent, changed[parent])
                            - current[parent]
                        )
                        reversals.append((gain, changed))
                else:
                    changed[child].add(parent)
                    if len(changed[child]) <= max_parents and _builds_a_dag(changed):
                        adds.append((family(child, changed[child]) - current[child], changed))
        moves = adds + deletes + reversals
        best_gain = max((gain for gain, _ in moves), default=-np.inf)
        best = None
        if best_gain > tolerance:
            best = next(changed for gain, changed in moves if gain >= best_gain - tolerance)
        if best is None or accepted == structure._MAX_MOVES:
            break
        parents = best
        current = [family(i, ps) for i, ps in enumerate(parents)]
    return tuple(tuple(sorted(ps)) for ps in parents), current, best is not None


def _reference_table(rng, num_vars, max_parents):
    """A random score table shaped like a likelihood-equivalent score: a
    family scores block(child + parents) - block(parents) - penalty * |parents|,
    where a block sums nonnegative weights over its subsets of two or more
    nodes.  A one-parent family then ties exactly with its reversal, and
    higher-order weights make reversals pay.  Weights span 1e-3 to 1e3, and
    some repeat exactly."""
    tie_share = rng.random() * 0.5
    pool = np.abs(rng.standard_normal(3)) * 10.0 ** rng.integers(-3, 4, size=3)
    weights = {}

    def block(nodes):
        total = 0.0
        for size in range(2, len(nodes) + 1):
            for subset in itertools.combinations(nodes, size):
                if subset not in weights:
                    u = rng.random()
                    if u < tie_share:
                        weights[subset] = float(rng.choice(pool))
                    elif u < 0.5 + tie_share / 2:
                        weights[subset] = 0.0
                    else:
                        weights[subset] = abs(rng.standard_normal()) * 10.0 ** rng.integers(-3, 4)
                total += weights[subset]
        return total

    penalty = 10.0 ** rng.integers(-3, 3)
    table = {}
    for child in range(num_vars):
        others = [v for v in range(num_vars) if v != child]
        for size in range(min(max_parents, len(others)) + 1):
            for ps in itertools.combinations(others, size):
                family = tuple(sorted((child, *ps)))
                table[child, ps] = float(block(family) - block(ps) - penalty * size)
    return table


def _table_scorer(table, tolerance):
    """The engine's scorer of a score table, with tolerance ``tolerance``."""
    def score(child, parent_sets):
        return np.array([table[child, ps] for ps in parent_sets])

    score.tolerance = tolerance
    return score


def _random_start(rng, num_vars, max_parents):
    """A random DAG within the cap, its parents sorted: each node in a random
    order draws up to ``max_parents`` parents from the nodes before it."""
    order = rng.permutation(num_vars).tolist()
    parents = [()] * num_vars
    for k, node in enumerate(order):
        size = int(rng.integers(0, min(max_parents, k) + 1))
        parents[node] = tuple(sorted(rng.choice(order[:k], size, replace=False).tolist()))
    return Dag(num_vars, tuple(parents))


# Tolerances: 0 is the first maximum; table gains run from 1e-3 to 1e3, so the
# larger ones make ties of moves that differ.
_TOLERANCES = (0.0, 2.0**-30, 1e-3, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), tolerance=st.sampled_from(_TOLERANCES), warm=st.booleans())
# 3 nodes, cap 3: at tolerance 0 a reversal of rounding-size gain (6.9e-18)
# flips forever, until the move cap; at 2**-30 it is no gain, and the search stops.
@example(seed=98, tolerance=0.0, warm=False)
@example(seed=98, tolerance=2.0**-30, warm=False)
def test_search_matches_a_reference_hill_climber(seed, tolerance, warm):
    rng = np.random.default_rng(seed)
    num_vars, max_parents = int(rng.integers(1, 8)), int(rng.integers(0, 4))
    table = _reference_table(rng, num_vars, max_parents)
    start = _random_start(rng, num_vars, max_parents) if warm else None
    score = _table_scorer(table, tolerance)
    config = SearchConfig(max_parents=max_parents)
    parents, current, capped = _reference_search(
        num_vars, lambda child, ps: table[child, ps], max_parents, tolerance,
        (start or Dag.empty(num_vars)).parents,
    )
    if capped:
        # An unconverged search is an error, never a result.
        with pytest.raises(ConvergenceError):
            _search(num_vars, score, config, start)
        return
    result = _search(num_vars, score, config, start)
    assert result.dag.parents == parents
    assert np.array(result.per_family_scores).tobytes() == np.array(current).tobytes()
    assert np.float64(result.score).tobytes() == np.float64(sum(current)).tobytes()


def _table_search(seed, nan_share=0.0, warm=False):
    """A random score table (see ``_reference_table``), with a share of its
    families with parents scored NaN; its size, cap and drawn tolerance; and,
    when ``warm``, a random start graph."""
    rng = np.random.default_rng(seed)
    num_vars, max_parents = int(rng.integers(1, 8)), int(rng.integers(0, 4))
    table = _reference_table(rng, num_vars, max_parents)
    for (child, ps) in sorted(table):
        if ps and rng.random() < nan_share:
            table[child, ps] = float("nan")
    tolerance = float(rng.choice(_TOLERANCES))
    start = _random_start(rng, num_vars, max_parents) if warm else None
    return table, num_vars, SearchConfig(max_parents=max_parents), tolerance, start


def _outcome(search, *args):
    """A search's pickled result, or ``ConvergenceError`` when it raises one."""
    try:
        return pickle.dumps(search(*args))
    except ConvergenceError:
        return ConvergenceError


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), warm=st.booleans())
def test_search_scores_each_family_once_and_only_those_the_rescan_scores(seed, warm):
    # The engine scores no family twice, and exactly the families the
    # rescanning engine scores: those of the start graph and of the moves
    # legal at some step.  Every scorer call gets a non-empty list of parent
    # sets of one size.
    table, num_vars, config, tolerance, start = _table_search(seed, warm=warm)
    batched, scalar = [], []

    def score(child, parent_sets):
        assert parent_sets and len({len(ps) for ps in parent_sets}) == 1, parent_sets
        batched.extend((child, ps) for ps in parent_sets)
        return np.array([table[child, ps] for ps in parent_sets])

    def one(child, ps):
        scalar.append((child, ps))
        return score(child, [ps])[0]

    score.tolerance = tolerance
    assert _outcome(_search, num_vars, score, config, start) == (
        _outcome(rescan_search, num_vars, one, config, tolerance, start)
    )
    engine = batched[: len(batched) - len(scalar)]
    assert len(set(engine)) == len(engine)
    assert set(engine) == set(scalar)


@pytest.mark.parametrize("seed", range(5))
def test_each_scorer_call_gets_parent_sets_of_one_size_at_a_cap_of_four(seed):
    # Below a cap of 4 a child's deletions are all cached by the time its
    # additions are scored; at 4 they are not, so an engine that scored both
    # in one call would hand the scorer two sizes.
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(5, 8))
    table = _reference_table(rng, num_vars, 4)
    sizes = []

    def score(child, parent_sets):
        sizes.append({len(ps) for ps in parent_sets})
        return np.array([table[child, ps] for ps in parent_sets])

    score.tolerance = 0.0
    _outcome(_search, num_vars, score, SearchConfig(max_parents=4))
    assert sizes and all(len(s) == 1 for s in sizes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nan_share=st.floats(0.1, 0.9))
def test_nan_family_scores_are_never_chosen(seed, nan_share):
    table, num_vars, config, tolerance, _ = _table_search(seed, nan_share)
    score = _table_scorer(table, tolerance)
    outcome = _outcome(_search, num_vars, score, config)
    rescan = _outcome(rescan_search, num_vars, lambda c, ps: score(c, [ps])[0], config, tolerance)
    assert outcome == rescan
    if isinstance(outcome, bytes):
        assert not np.isnan(pickle.loads(outcome).per_family_scores).any()


@pytest.mark.parametrize(
    "kind, missing, width",
    [
        (kind, missing, width)
        for kind in ("cbn", "lgbn")
        for missing in (0.0, 0.25)
        for width in (5, 10, 40)
    ]
    + [("cbn", 0.25, 100)],
)
def test_search_is_pickle_identical_to_the_rescan_oracle(kind, missing, width):
    # Every engine run of a learning loop, replayed on the engine that
    # rescans every move; the oracle reads each family's score from the
    # engine's own scorer calls (a family it needs and the engine never
    # scored is scored afresh).
    rng = np.random.default_rng(width)
    num_rows = 200
    x = warp_columns(chain_scores(0.6, width, num_rows, rng), cycle_warps(width))
    data = apply_missing_mask(MaskedDataset.from_values(x), missing, seed=width + 1)
    runs = []
    search = structure._search

    def recorded(num_vars, score, config, start=None):
        scored = {}

        def recording(child, parent_sets):
            values = score(child, parent_sets)
            scored.update(zip([(child, ps) for ps in parent_sets], values))
            return values

        recording.tolerance = score.tolerance
        result = search(num_vars, recording, config, start)
        runs.append((score, scored, config, start, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_search", recorded)
        greedy_search(data, SearchConfig(max_parents=2), model_kind=kind)
    for score, scored, config, start, result in runs:
        def one(child, ps):
            return scored[child, ps] if (child, ps) in scored else score(child, [ps])[0]

        assert result.dag.num_edges() > 0
        oracle = rescan_search(width, one, config, score.tolerance, start)
        assert pickle.dumps(result) == pickle.dumps(oracle)


# ------------------------------------------------------------ recovery


def test_recovers_chain_skeleton_from_complete_data():
    data = _chain_dataset(rho=0.5, num_vars=5, num_rows=2000, seed=7)
    expected = Dag.chain(5).skeleton()
    for config in (SearchConfig(max_parents=2), SearchConfig(max_parents=1)):
        result = greedy_search(data, config)
        assert result.dag.skeleton() == expected

    lg = greedy_search(data, SearchConfig(max_parents=2), model_kind="lgbn")
    assert lg.dag.skeleton() == expected


def test_returns_empty_graph_on_independent_columns():
    data = _independent_dataset()
    for kind in ("cbn", "lgbn"):
        result = greedy_search(data, SearchConfig(max_parents=2), model_kind=kind)
        assert result.dag.num_edges() == 0, kind


def test_recovers_chain_skeleton_under_missingness():
    data = apply_missing_mask(
        _chain_dataset(rho=0.6, num_vars=4, num_rows=2000, seed=8), 0.1, seed=9
    )
    expected = Dag.chain(4).skeleton()
    with _recorded_searches() as runs:
        cbn = greedy_search(data, SearchConfig(max_parents=2))
    assert cbn.dag.skeleton() == expected
    _check_scores(cbn, runs)
    # structural EM for the Gaussian baseline, on data it is well
    # specified for (no marginal warps: a linear model on warped columns
    # legitimately wants extra edges)
    gauss = apply_missing_mask(
        _chain_dataset(rho=0.6, num_vars=4, num_rows=2000, seed=0, warp=False),
        0.1,
        seed=50,
    )
    with _recorded_searches() as runs:
        lg = greedy_search(gauss, SearchConfig(max_parents=2), model_kind="lgbn")
    assert lg.dag.skeleton() == expected
    _check_scores(lg, runs)


# --------------------------------------------------------- constraints


def test_parent_caps_are_respected():
    rng = np.random.default_rng(10)
    # star data: x0 drives three children, tempting >1 parent via siblings
    z0 = rng.standard_normal(1200)
    x = np.column_stack(
        [z0 + 0.4 * rng.standard_normal(1200) for _ in range(3)] + [z0]
    )
    data = MaskedDataset.from_values(x)
    tree = greedy_search(data, SearchConfig(max_parents=1))
    assert max(len(ps) for ps in tree.dag.parents) <= 1
    capped = greedy_search(data, SearchConfig(max_parents=2))
    assert max(len(ps) for ps in capped.dag.parents) <= 2


def test_max_parents_zero_means_empty_graph():
    data = _chain_dataset(num_rows=300, num_vars=3, seed=11)
    result = greedy_search(data, SearchConfig(max_parents=0))
    assert result.dag.num_edges() == 0


def test_unknown_model_kind_raises():
    data = _chain_dataset(num_rows=100, num_vars=3, seed=12)
    with pytest.raises(InvalidInputError):
        greedy_search(data, SearchConfig(), model_kind="mystery")
    with pytest.raises(InvalidInputError):
        fit_model(data, "mystery", SearchConfig())


# ------------------------------------------------- the learned model


@contextlib.contextmanager
def _recorded_em_fits():
    """Every EM fit on hidden cells inside the block as (start, history,
    (model, mean, cov)), in call order: each run of the loop that
    ``em_fit_lg`` and the structural-EM rounds share, patched in every module
    that binds it."""
    fits = []
    em = gaussian_bn._em

    def recorded(data, start, history=None):
        history = [] if history is None else history
        out = em(data, start, history)
        fits.append((start, history, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if module.__name__.startswith("copulabn") and getattr(module, "_em", None) is em:
                mp.setattr(module, "_em", recorded)
        yield fits


@pytest.mark.parametrize(
    "num_vars, num_rows, fits",
    # Both loops converge: the 5-column table's in its second search, and the
    # 40x200 table's (the wide-missing shape) in its third.
    [(5, 400, 2), (40, 200, 3)],
)
def test_learning_never_fits_the_same_graph_twice_in_a_row(num_vars, num_rows, fits):
    # Structural EM fits each graph its search finds; when a search returns
    # the graph it was scored under, that fit is the model.  The first fit,
    # of the empty graph, starts from the independent Gaussian; every later
    # one from the M-step on the moments its search scored, those of the
    # last model, and its likelihood never falls below that start's.
    data = apply_missing_mask(
        _chain_dataset(rho=0.6, num_vars=num_vars, num_rows=num_rows, seed=16), 0.25, seed=17
    )
    with _recorded_em_fits() as fitted:
        model = fit_model(data, "lgbn", SearchConfig(max_parents=2))
    dags = [start.dag.parents for start, _, _ in fitted]
    assert len(dags) == fits
    assert dags[0] == Dag.empty(num_vars).parents
    assert dags[-1] == model.dag.parents
    assert serialize(fitted[-1][2][0]) == serialize(model)
    for before, after in zip(dags, dags[1:]):
        assert before != after
    assert serialize(fitted[0][2][0]) == serialize(em_fit_lg(data, Dag.empty(num_vars)))
    for _, _, (fit, mean, cov) in fitted:
        # The moments a fit hands on are its model's E-step, bit for bit.
        want = expected_moments(fit, data)
        assert (mean.tobytes(), cov.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    for (_, _, (last, _, _)), (start, history, _) in zip(fitted, fitted[1:]):
        mean, cov, _ = expected_moments(last, data)
        assert serialize(start) == serialize(_fit_from_moments(mean, cov, start.dag, data.column_names))
        begin = float(log_marginal_lg_rows(start, data).sum())
        assert np.diff([begin, *history]).min() >= -1e-8 * abs(begin)


def test_learning_that_still_moves_at_the_round_cap_raises(monkeypatch):
    # The 40x200 loop above needs three searches; capped at two, its graph
    # still moves in the last one.
    data = apply_missing_mask(_chain_dataset(rho=0.6, num_vars=40, num_rows=200, seed=16), 0.25, seed=17)
    monkeypatch.setattr(structure, "_STRUCTURE_ROUNDS", 2)
    with pytest.raises(ConvergenceError, match="still moves the graph after 2 structural-EM rounds"):
        fit_model(data, "lgbn", SearchConfig(max_parents=2))
    monkeypatch.setattr(structure, "_STRUCTURE_ROUNDS", 3)
    fit_model(data, "lgbn", SearchConfig(max_parents=2))


def test_search_that_still_gains_at_the_move_cap_raises():
    # A score that rewards every parent: the climb adds edges up to a
    # complete DAG, and on 46 nodes that has 1,035 edges, more than _MAX_MOVES.
    def score(child, parent_sets):
        return np.full(len(parent_sets), float(len(parent_sets[0])))

    score.tolerance = 2.0**-30
    with pytest.raises(ConvergenceError, match=f"search still gains 1.0 after {structure._MAX_MOVES} moves"):
        _search(46, score, SearchConfig(max_parents=45))
    result = _search(45, score, SearchConfig(max_parents=44))  # 990 edges
    assert result.dag.num_edges() == 990


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cbn", "lgbn"]),
    num_vars=st.integers(2, 5),
    num_rows=st.integers(20, 120),
    missing=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_learned_model_is_a_fresh_fit_of_the_returned_graph(kind, num_vars, num_rows, missing, seed):
    # The model is a fit of the returned graph.  Under lgbn with hidden cells
    # it is the EM that started from the moments of the round that found the
    # graph, the search before the last, or the empty graph's plain EM when
    # the first search kept it.
    rng = np.random.default_rng(seed)
    x = warp_columns(chain_scores(0.5, num_vars, num_rows, rng), cycle_warps(num_vars))

    def masked():
        return apply_missing_mask(MaskedDataset.from_values(x), missing, seed=seed)

    config = SearchConfig(max_parents=2)
    model = fit_model(masked(), kind, config)
    data = masked()
    moments = []
    gaussian_score = structure._gaussian_score

    def recording(mean, cov, num_rows):
        moments.append((mean, cov))
        return gaussian_score(mean, cov, num_rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_gaussian_score", recording)
        dag = greedy_search(data, config, model_kind=kind).dag
    assert model.dag.parents == dag.parents
    if kind == "cbn":
        fresh = fit_missing(data, dag)
    elif data.fully_observed or len(moments) == 1:
        fresh = em_fit_lg(data, dag)
    else:
        mean, cov = moments[-2]
        fresh = gaussian_bn._em(data, _fit_from_moments(mean, cov, dag, data.column_names))[0]
    assert serialize(model) == serialize(fresh)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cbn", "lgbn"]),
    num_vars=st.integers(2, 6),
    num_rows=st.integers(20, 300),
    rho=st.floats(-0.8, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_reported_score_belongs_to_the_returned_model_on_complete_data(
    kind, num_vars, num_rows, rho, seed
):
    # The search's score plus its BIC penalties (and, for the copula model,
    # the structure-invariant marginal terms) is the training log-likelihood
    # of the model that fit_model returns.
    rng = np.random.default_rng(seed)
    x = warp_columns(chain_scores(rho, num_vars, num_rows, rng), cycle_warps(num_vars))
    data = MaskedDataset.from_values(x)
    config = SearchConfig(max_parents=2)
    result = greedy_search(data, config, model_kind=kind)
    model = fit_model(data, kind, config)
    assert model.dag.parents == result.dag.parents
    if kind == "cbn":
        penalties = sum(bic_penalty(1, num_rows) for ps in result.dag.parents if ps)
        marginals = sum(m.log_pdf(x[:, j]).sum() for j, m in enumerate(model.marginals))
        loglik = log_density_rows(model, x).sum()
        recovered = result.score + penalties + marginals
    else:
        penalties = sum(bic_penalty(len(ps) + 2, num_rows) for ps in result.dag.parents)
        loglik = log_marginal_lg_rows(model, data).sum()
        recovered = result.score + penalties
    np.testing.assert_allclose(recovered, loglik, rtol=1e-12, atol=0)


def _masked_chain(num_vars, num_rows, missing, seed, scale=1.0):
    """A warped chain table times ``scale``, with ``missing`` of its cells hidden."""
    rng = np.random.default_rng(seed)
    x = warp_columns(chain_scores(0.6, num_vars, num_rows, rng), cycle_warps(num_vars))
    return apply_missing_mask(MaskedDataset.from_values(x * scale), missing, seed=seed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    num_vars=st.integers(3, 12),
    num_rows=st.integers(40, 300),
    missing=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lgbn_graph_is_the_same_for_a_table_scaled_by_one_plus_two_to_the_minus_fifty(
    num_vars, num_rows, missing, seed
):
    # Rescaling every column moves each family's log-likelihood by the same
    # amount per child, so every gain moves by rounding alone.  Ties between
    # Markov-equivalent moves go to the scan order, not to that rounding.
    config = SearchConfig(max_parents=2)
    dags = [
        greedy_search(_masked_chain(num_vars, num_rows, missing, seed, scale), config, "lgbn").dag
        for scale in (1.0, 1.0 + 2.0**-50)
    ]
    assert dags[0].parents == dags[1].parents


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    num_vars=st.integers(4, 14),
    num_rows=st.integers(60, 300),
    missing=st.floats(0.1, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_structural_em_round_climbs_from_the_last_graph(num_vars, num_rows, missing, seed):
    # Friedman's step: from round 2 on, each search starts from the graph
    # the last one returned, and its score is at least that graph's score
    # under the round's own moments.
    data = _masked_chain(num_vars, num_rows, missing, seed)
    with _recorded_searches() as runs:
        greedy_search(data, SearchConfig(max_parents=2), model_kind="lgbn")
    for (_, _, last), (score, start, run) in zip(runs, runs[1:]):
        assert start.parents == last.dag.parents
        begin = _graph_score(score, start)
        assert run.score >= begin - 1e-9 * abs(begin)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    num_vars=st.integers(2, 12),
    num_rows=st.integers(30, 300),
    missing=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_reported_score_is_the_search_on_the_returned_models_own_moments(
    num_vars, num_rows, missing, seed
):
    # The masked half of the reported-score gate: the returned structure is,
    # bit for bit, what the search returns on the expected moments of the
    # returned model, climbing from that model's graph.
    data = _masked_chain(num_vars, num_rows, missing, seed)
    config = SearchConfig(max_parents=2)
    result, model = structure._learn(data, config, "lgbn")
    mean, cov, rows = expected_moments(model, data)
    again = _search(num_vars, structure._gaussian_score(mean, cov, rows), config, model.dag)
    assert again.dag.parents == model.dag.parents
    assert pickle.dumps(again) == pickle.dumps(result)


# --------------------------------------------------------- determinism


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cbn", "lgbn"]),
    num_vars=st.integers(2, 5),
    num_rows=st.integers(20, 120),
    missing=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_reruns_on_fresh_datasets_are_identical(kind, num_vars, num_rows, missing, seed):
    # Each dataset object caches its own score table and second moments, so
    # two datasets built from the same arrays must give the same bytes.
    rng = np.random.default_rng(seed)
    x = warp_columns(chain_scores(0.5, num_vars, num_rows, rng), cycle_warps(num_vars))
    runs = []
    for _ in range(2):
        data = apply_missing_mask(MaskedDataset.from_values(x), missing, seed=seed)
        result = greedy_search(data, SearchConfig(max_parents=2), model_kind=kind)
        model = fit_model(data, kind, SearchConfig(max_parents=2))
        runs.append((pickle.dumps(result), pickle.dumps(model), serialize(model)))
    assert runs[0] == runs[1]


def test_search_is_deterministic():
    data = _chain_dataset(num_rows=800, num_vars=4, seed=13)
    a = greedy_search(data, SearchConfig(max_parents=2))
    b = greedy_search(data, SearchConfig(max_parents=2))
    assert a.dag == b.dag
    assert a.score == b.score
    assert a.per_family_scores == b.per_family_scores


def test_one_search_builds_one_dag(monkeypatch):
    # The engine keeps its graph in place; the one Dag it builds is the
    # returned graph, whose construction validates it.
    built = []
    post_init = Dag.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    score = _cbn_score(_chain_dataset(num_vars=6, num_rows=600, seed=4))
    monkeypatch.setattr(Dag, "__post_init__", counted)
    result = _search(6, score, SearchConfig(max_parents=2))
    assert result.dag.num_edges() >= 2
    assert len(built) == 1 and built[0] is result.dag
