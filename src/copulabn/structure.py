"""Score-based greedy structure search with a BIC penalty.

Best-ascent hill climbing over add/delete/reverse edge moves, starting from
the empty graph: every legal move is scored, the best strictly improving
one is applied, and the search stops when none improves.  Results are
deterministic: moves are scanned as additions, deletions, then reversals,
each in (child, parent) order, and the first maximum wins.  The engine
steps from one :class:`Dag` to the next and keeps two gain arrays, each
child's family score with each node added to or deleted from its parents
(Chickering 2002 caches such deltas); scores decompose per family, so after
a move only the rows of the one or two children whose parents changed are
refilled.  Legality comes as boolean masks from the graph's ancestor matrix
(Giudici & Castelo 2003), and one masked argmax picks the move.
``SearchConfig(max_parents=1)`` restricts the search to forests of trees.

Two plain ``score(child, parent_sets)`` functions of (moments, rows) plug
into the same engine.  Each call passes one child and a non-empty list of
parent sets of one size, and gets the families' scores back as an array;
each scorer reads the list from its moment matrix in one gather and fits it
in one batch, with the fitter that fits a model's families of one size:

* the copula-network score — each family's maximized sum of (expected) log
  ratio terms, read from the score table's second-moment matrix, minus the
  penalty for its one correlation; marginal terms are structure-invariant;
* the linear-Gaussian score — each family's maximized conditional
  log-likelihood, a Schur complement of the (expected) mean-centred
  covariance, minus the penalty for its ``len(parents) + 2`` parameters.

Both kinds learn in one structural-EM loop: search on the moments the
current model gives, fit the graph found, and repeat while the moments read
the model, as only the Gaussian E-step with hidden cells does; the copula
moments hold the likelihood bound's expectations, read from the data alone.
"""

from dataclasses import dataclass

import numpy as np

from .cbn import _score_table, fit_missing
from .copula import family_stats
from .dag import Dag
from .errors import ConvergenceError, InvalidInputError, OutOfRangeError, ValidationError, _integer
from .gaussian_bn import _mean_cov, em_fit_lg, expected_moments, family_ll_from_moments

__all__ = [
    "SearchConfig",
    "ScoredStructure",
    "bic_penalty",
    "greedy_search",
]

# Cap on the searches of one structural-EM loop (lgbn with hidden cells).
_STRUCTURE_ROUNDS = 3
# Cap on accepted moves of one greedy search; an improving move left after it raises.
_MAX_MOVES = 1000


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the greedy search.

    Attributes
    ----------
    max_parents : int
        Parent-set size cap, a non-negative integer (default 3); 1 restricts
        the search to forests of trees.
    """

    max_parents: int = 3

    def __post_init__(self):
        cap = _integer(self.max_parents, "max_parents", 0, ValidationError)
        object.__setattr__(self, "max_parents", cap)


@dataclass(frozen=True)
class ScoredStructure:
    """Search result: graph, total score, per-node contributions.

    ``per_family_scores[i]`` is node i's penalized family score for its
    returned parents, the quantity the search maximized, and ``score`` is
    their sum.  Under the copula model the marginal log densities, the same
    for every structure, are not included, so the empty graph scores 0.
    """

    dag: Dag
    score: float
    per_family_scores: tuple


def bic_penalty(num_params, num_instances):
    """``0.5 * ln(M) * |params|`` (natural log)."""
    if num_params < 0:
        raise OutOfRangeError(f"parameter count must be >= 0, got {num_params}")
    if num_instances < 1:
        raise OutOfRangeError(f"instance count must be >= 1, got {num_instances}")
    return 0.5 * np.log(num_instances) * num_params


def _copula_score(second, num_rows):
    """Penalized copula family scores of one child's parent sets of one size:
    each family's maximized objective minus the penalty for its one
    correlation, 0 without parents."""
    penalty = bic_penalty(1, num_rows)

    def score(child, parent_sets):
        if not parent_sets[0]:
            return np.zeros(len(parent_sets))
        families = [(child, *ps) for ps in parent_sets]
        return family_stats(second, float(num_rows), families).fit()[1] - penalty

    return score


def _gaussian_score(mean, cov, num_rows):
    """Penalized linear-Gaussian family scores of one child's parent sets of
    one size, from the mean and centred covariance."""
    def score(child, parent_sets):
        penalty = bic_penalty(len(parent_sets[0]) + 2, num_rows)
        return family_ll_from_moments(mean, cov, child, parent_sets, num_rows) - penalty

    return score


def _with(ps, p):
    return tuple(sorted((*ps, p)))


def _without(ps, p):
    return tuple(q for q in ps if q != p)


def _legal_moves(dag, max_parents):
    """Boolean (child, parent) masks of ``dag``'s legal additions, deletions
    and reversals of the edge parent->child.

    Adding parent->child closes a cycle iff child is an ancestor of parent.
    Reversing parent->child closes one iff another parent of child has
    parent as an ancestor.
    """
    n = dag.num_vars
    ancestors = dag.ancestor_matrix()
    sizes = np.array([len(ps) for ps in dag.parents])
    edges = np.zeros((n, n), dtype=bool)
    edges[np.repeat(np.arange(n), sizes), [p for ps in dag.parents for p in ps]] = True
    room = sizes < max_parents
    add = ~edges & ~ancestors.T & room[:, None]
    np.fill_diagonal(add, False)
    reached = edges @ ancestors
    return add, edges, edges & room[None, :] & ~reached


def _search(num_vars, score, config):
    """Best-ascent engine: applies the best strictly improving move (first
    maximum in scan order) until none improves, and returns the family scores
    it maximized; ``ConvergenceError`` if one still improves after ``_MAX_MOVES``.

    ``added[c, p]`` holds the score of c's family with p added and
    ``deleted[c, p]`` with p deleted; a reversal gains
    ``((deleted[c, p] - current[c]) + added[p, c]) - current[p]``.  An entry
    is filled when a legal move first needs it, and a child's rows are
    emptied (set to NaN) when its parents change.  A child's missing
    additions are scored in one ``score`` call and its missing deletions in
    another, so every call gets a non-empty list of parent sets of one size,
    |ps| + 1 or |ps| - 1.  No family is scored twice: a family seen before,
    NaN-scored ones included, is read from the cache, and a list with
    nothing left to score makes no call."""
    scored = {}

    def family_scores(child, parent_sets):
        todo = [ps for ps in parent_sets if (child, ps) not in scored]
        if todo:
            scored.update(zip([(child, ps) for ps in todo], score(child, todo)))
        return [scored[child, ps] for ps in parent_sets]

    dag = Dag.empty(num_vars)
    current = np.array([family_scores(i, [()])[0] for i in range(num_vars)])
    added, deleted = np.full((2, num_vars, num_vars), np.nan)

    for accepted in range(_MAX_MOVES + 1):
        # legal[kind] for the additions, deletions and reversals.
        legal = np.stack(_legal_moves(dag, config.max_parents))
        # need[0] and need[1]: the empty entries of added and deleted that a legal move reads.
        need = np.stack([(legal[0] | legal[2].T) & np.isnan(added), legal[1] & np.isnan(deleted)])
        for child in np.nonzero(need.any(axis=(0, 2)))[0].tolist():
            ps = dag.parents[child]
            for table, mask, edit in zip((added, deleted), need[:, child], (_with, _without)):
                cols = np.nonzero(mask)[0].tolist()
                table[child, cols] = family_scores(child, [edit(ps, p) for p in cols])

        add_gain = added - current[:, None]
        delete_gain = deleted - current[:, None]
        gains = np.stack([add_gain, delete_gain, (delete_gain + added.T) - current[None, :]])
        gains[~legal | np.isnan(gains)] = -np.inf
        # Scan order is the flat order: additions, deletions, then reversals,
        # each (child, parent)-ordered; argmax keeps the first maximum.
        best = int(np.argmax(gains))
        best_gain = float(gains.flat[best])
        if not best_gain > 0.0:
            break
        if accepted == _MAX_MOVES:
            raise ConvergenceError(f"search still gains {best_gain!r} after {_MAX_MOVES} moves")
        kind, child, parent = (int(i) for i in np.unravel_index(best, gains.shape))
        parents = list(dag.parents)
        if kind == 0:
            move = [(child, _with(parents[child], parent))]
        else:
            move = [(child, _without(parents[child], parent))]
        if kind == 2:
            move.append((parent, _with(parents[parent], child)))
        for node, ps in move:
            parents[node] = ps
            current[node] = scored[node, ps]
            added[node] = deleted[node] = np.nan
        dag = Dag(num_vars, tuple(parents))

    return ScoredStructure(dag, float(sum(current)), tuple(current))


def greedy_search(data, config, model_kind="cbn"):
    """Best-ascent structure search from the empty graph.

    Parameters
    ----------
    data : MaskedDataset
    config : SearchConfig
    model_kind : str
        "cbn" scores families under the copula model; "lgbn" under the
        linear-Gaussian baseline, in structural-EM rounds when cells are hidden.

    Returns
    -------
    ScoredStructure
        ``per_family_scores`` holds each node's penalized family score for
        its returned parents; ``score`` is their sum.  Searching also fits
        the model that :func:`copulabn.benchmark.fit_model` returns.
    """
    return _learn(data, config, model_kind)[0]


def _learn(data, config, model_kind):
    """Structural EM (Friedman 1998): ``(ScoredStructure, model fitted to its dag)``.

    Each kind gives ``score_for(model)`` and ``fit(data, dag)``.  Only an E-step that
    reads the model (lgbn with hidden cells) repeats, up to ``_STRUCTURE_ROUNDS``
    searches, until a search returns the model's own graph."""
    model = None
    if model_kind == "cbn":
        score = _copula_score(_score_table(data).second, data.num_rows)
        score_for, fit = lambda _: score, fit_missing
    elif model_kind == "lgbn" and data.fully_observed:
        score = _gaussian_score(*_mean_cov(data.values), data.num_rows)
        score_for, fit = lambda _: score, em_fit_lg
    elif model_kind == "lgbn":
        def score_for(model):
            return _gaussian_score(*expected_moments(model, data))

        fit = em_fit_lg
        model = fit(data, Dag.empty(data.num_cols))
    else:
        raise InvalidInputError(f"unknown model_kind {model_kind!r}")

    for _ in range(_STRUCTURE_ROUNDS if model is not None else 1):
        result = _search(data.num_cols, score_for(model), config)
        if model is not None and result.dag.parents == model.dag.parents:
            break
        model = fit(data, result.dag)
    return result, model
