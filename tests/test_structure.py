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

from copulabn import structure
from copulabn.benchmark import fit_model
from copulabn.cbn import _score_table, fit_missing, log_density_rows
from copulabn.copula import family_stats, ratio_log_from_z
from copulabn.dag import Dag
from copulabn.data import MaskedDataset, apply_missing_mask
from copulabn.errors import ConvergenceError, InvalidInputError, OutOfRangeError, ValidationError
from copulabn.gaussian_bn import em_fit_lg, log_marginal_lg_rows
from copulabn.marginals import KdeMarginal, fit_kde
from copulabn.model_io import serialize
from copulabn.structure import (
    ScoredStructure,
    SearchConfig,
    _copula_score,
    _legal_moves,
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
    with pytest.raises(ValidationError):
        SearchConfig(max_parents=-1)


# -------------------------------------------------------- family score


def test_family_score_matches_independent_computation():
    data = _chain_dataset(num_rows=400, num_vars=3, seed=2)
    marginals = tuple(fit_kde(data.values[:, j]) for j in range(3))
    z = np.column_stack(
        [ndtri(marginals[j].cdf(data.values[:, j])) for j in range(3)]
    )
    got = _cbn_score(data)(1, [(0,)])[0]

    rho, value = family_stats(z.T @ z, 400, (1, 0)).fit()
    np.testing.assert_allclose(got, value - bic_penalty(1, 400), rtol=0, atol=1e-9)
    # the fitted objective is literally the summed log ratio terms
    np.testing.assert_allclose(
        value, ratio_log_from_z(2, rho, z[:, [1, 0]]).sum(), rtol=0, atol=1e-9
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
    """Every engine run inside the block as (score, result), in call order."""
    runs = []
    search = structure._search

    def recorded(num_vars, score, config):
        result = search(num_vars, score, config)
        runs.append((score, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_search", recorded)
        yield runs


def _check_scores(result, runs):
    """The result is the last engine run's, and its scores are the penalized
    family scores that run's score function gives the returned parents."""
    score, last = runs[-1]
    assert last is result
    assert result.score == sum(result.per_family_scores)
    assert result.per_family_scores == tuple(
        score(i, [ps])[0] for i, ps in enumerate(result.dag.parents)
    )


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
    # Every run of the engine, structural-EM rounds included, starts from
    # the empty graph and accepts only improving moves.
    for score, run in runs:
        empty = sum(score(i, [()])[0] for i in range(num_vars))
        assert run.score >= empty - 1e-9 * max(1.0, abs(empty))
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_vars=st.integers(1, 12),
    density=st.floats(0.0, 0.7),
    max_parents=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_move_legality_matches_dag_validation(num_vars, density, max_parents, seed):
    # A random DAG: edges run forward along a random node order.
    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(num_vars)]
    parents = [set() for _ in range(num_vars)]
    for i in range(num_vars):
        for j in range(i + 1, num_vars):
            if rng.random() < density:
                parents[order[j]].add(order[i])

    # Ancestor sets against brute-force reachability over parent lists.
    dag = Dag(num_vars, tuple(tuple(sorted(ps)) for ps in parents))
    for node in range(num_vars):
        reached, stack = set(), list(parents[node])
        while stack:
            p = stack.pop()
            if p not in reached:
                reached.add(p)
                stack.extend(parents[p])
        assert dag.ancestors[node] == sum(1 << p for p in reached)

    # The engine offers an add or a reversal exactly when the resulting
    # graph is a DAG and the touched family stays within the cap.  Written
    # as the (node, new sorted parents) changes each move makes, in scan
    # order: each mask's (child, parent) entries, row-major.
    add, delete, reverse = _legal_moves(dag, max_parents)
    ordered = [[int(p) for p in ps] for ps in dag.parents]
    moves = [((c, tuple(sorted([*ordered[c], p]))),) for c, p in np.argwhere(add).tolist()]
    moves += [((c, tuple(q for q in ordered[c] if q != p)),) for c, p in np.argwhere(delete).tolist()]
    moves += [
        ((c, tuple(q for q in ordered[c] if q != p)), (p, tuple(sorted([*ordered[p], c]))))
        for c, p in np.argwhere(reverse).tolist()
    ]
    expected = {"add": [], "delete": [], "reverse": []}
    for child in range(num_vars):
        for parent in range(num_vars):
            if parent == child:
                continue
            changed = [set(ps) for ps in parents]
            if parent in parents[child]:
                changed[child].remove(parent)
                expected["delete"].append(((child, tuple(sorted(changed[child]))),))
                changed[parent].add(child)
                if len(parents[parent]) < max_parents and _builds_a_dag(changed):
                    expected["reverse"].append(
                        (
                            (child, tuple(sorted(changed[child]))),
                            (parent, tuple(sorted(changed[parent]))),
                        )
                    )
            else:
                changed[child].add(parent)
                if len(parents[child]) < max_parents and _builds_a_dag(changed):
                    expected["add"].append(((child, tuple(sorted(changed[child]))),))
    assert moves == expected["add"] + expected["delete"] + expected["reverse"]


def _reference_search(num_vars, score, max_parents):
    """Textbook best ascent: enumerate every addition, deletion and reversal
    in scan order, keep those whose result is a DAG within the cap, and
    apply the first strict maximum of the gains.  Like the engine, it gives
    up after ``_MAX_MOVES`` accepted moves, since a gain of rounding size can
    flip a reversal back and forth; the third value says whether it stopped
    there with a strictly improving move still left."""
    parents = [set() for _ in range(num_vars)]

    def family(node, ps):
        return score(node, tuple(sorted(ps)))

    current = [family(i, ()) for i in range(num_vars)]
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
        best_gain, best = 0.0, None
        for gain, changed in adds + deletes + reversals:
            if gain > best_gain:
                best_gain, best = gain, changed
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
# 3 nodes, cap 3: a reversal of rounding-size gain (6.9e-18) flips forever.
@example(seed=98)
def test_search_matches_a_reference_hill_climber(seed):
    rng = np.random.default_rng(seed)
    num_vars, max_parents = int(rng.integers(1, 8)), int(rng.integers(0, 4))
    table = _reference_table(rng, num_vars, max_parents)

    def score(child, parent_sets):
        return np.array([table[child, ps] for ps in parent_sets])

    config = SearchConfig(max_parents=max_parents)
    parents, current, capped = _reference_search(
        num_vars, lambda child, ps: table[child, ps], max_parents
    )
    if capped:
        # An unconverged search is an error, never a result.
        with pytest.raises(ConvergenceError):
            _search(num_vars, score, config)
        return
    result = _search(num_vars, score, config)
    assert result.dag.parents == parents
    assert np.array(result.per_family_scores).tobytes() == np.array(current).tobytes()
    assert np.float64(result.score).tobytes() == np.float64(sum(current)).tobytes()


def _table_search(seed, nan_share=0.0):
    """A random score table (see ``_reference_table``), with a share of its
    families with parents scored NaN, and its size and cap."""
    rng = np.random.default_rng(seed)
    num_vars, max_parents = int(rng.integers(1, 8)), int(rng.integers(0, 4))
    table = _reference_table(rng, num_vars, max_parents)
    for (child, ps) in sorted(table):
        if ps and rng.random() < nan_share:
            table[child, ps] = float("nan")
    return table, num_vars, SearchConfig(max_parents=max_parents)


def _outcome(search, num_vars, score, config):
    """A search's pickled result, or ``ConvergenceError`` when it raises one."""
    try:
        return pickle.dumps(search(num_vars, score, config))
    except ConvergenceError:
        return ConvergenceError


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=98)  # the search that hits the move cap
def test_search_scores_each_family_once_and_only_those_the_rescan_scores(seed):
    # The engine scores no family twice, and exactly the families the
    # rescanning engine scores: those of the moves legal at some step.
    table, num_vars, config = _table_search(seed)
    batched, scalar = [], []

    def score(child, parent_sets):
        batched.extend((child, ps) for ps in parent_sets)
        return np.array([table[child, ps] for ps in parent_sets])

    def one(child, ps):
        scalar.append((child, ps))
        return score(child, [ps])[0]

    assert _outcome(_search, num_vars, score, config) == (
        _outcome(rescan_search, num_vars, one, config)
    )
    engine = batched[: len(batched) - len(scalar)]
    assert len(set(engine)) == len(engine)
    assert set(engine) == set(scalar)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nan_share=st.floats(0.1, 0.9))
def test_nan_family_scores_are_never_chosen(seed, nan_share):
    table, num_vars, config = _table_search(seed, nan_share)

    def score(child, parent_sets):
        return np.array([table[child, ps] for ps in parent_sets])

    outcome = _outcome(_search, num_vars, score, config)
    assert outcome == _outcome(rescan_search, num_vars, lambda c, ps: score(c, [ps])[0], config)
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

    def recorded(num_vars, score, config):
        scored = {}

        def recording(child, parent_sets):
            values = score(child, parent_sets)
            scored.update(zip([(child, ps) for ps in parent_sets], values))
            return values

        result = search(num_vars, recording, config)
        runs.append((score, scored, config, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_search", recorded)
        greedy_search(data, SearchConfig(max_parents=2), model_kind=kind)
    for score, scored, config, result in runs:
        def one(child, ps):
            return scored[child, ps] if (child, ps) in scored else score(child, [ps])[0]

        assert result.dag.num_edges() > 0
        assert pickle.dumps(result) == pickle.dumps(rescan_search(width, one, config))


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


@pytest.mark.parametrize(
    "num_vars, num_rows, fits",
    # The 5-column table's loop converges in its third search; the loop on
    # the 40x200 table (the wide-missing shape) stops at the round cap, then
    # fits the graph it found.
    [(5, 400, structure._STRUCTURE_ROUNDS), (40, 200, structure._STRUCTURE_ROUNDS + 1)],
)
def test_learning_never_fits_the_same_graph_twice_in_a_row(monkeypatch, num_vars, num_rows, fits):
    # Structural EM fits each graph its search finds; when a search returns
    # the graph it was scored under, that fit is the model.  Patch every
    # module that binds em_fit_lg.
    fitted = []

    def recording_em_fit_lg(data, dag, *args, **kwargs):
        fitted.append(dag.parents)
        return em_fit_lg(data, dag, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("copulabn") and getattr(module, "em_fit_lg", None) is em_fit_lg:
            monkeypatch.setattr(module, "em_fit_lg", recording_em_fit_lg)
    data = apply_missing_mask(
        _chain_dataset(rho=0.6, num_vars=num_vars, num_rows=num_rows, seed=16), 0.25, seed=17
    )
    model = fit_model(data, "lgbn", SearchConfig(max_parents=2))
    assert len(fitted) == fits
    assert fitted[0] == Dag.empty(num_vars).parents
    assert fitted[-1] == model.dag.parents
    for before, after in zip(fitted, fitted[1:]):
        assert before != after


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cbn", "lgbn"]),
    num_vars=st.integers(2, 5),
    num_rows=st.integers(20, 120),
    missing=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_learned_model_is_a_fresh_fit_of_the_returned_graph(kind, num_vars, num_rows, missing, seed):
    rng = np.random.default_rng(seed)
    x = warp_columns(chain_scores(0.5, num_vars, num_rows, rng), cycle_warps(num_vars))

    def masked():
        return apply_missing_mask(MaskedDataset.from_values(x), missing, seed=seed)

    config = SearchConfig(max_parents=2)
    model = fit_model(masked(), kind, config)
    data = masked()
    dag = greedy_search(data, config, model_kind=kind).dag
    fresh = (fit_missing if kind == "cbn" else em_fit_lg)(data, dag)
    assert model.dag.parents == dag.parents
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
