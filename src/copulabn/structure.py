"""Score-based greedy structure search with a BIC penalty.

Best-ascent hill climbing over add/delete/reverse edge moves, from a start
graph (the empty graph unless a structural-EM round passes the last one):
every legal move is scored, and while the best gain exceeds a tolerance
τ = 2⁻³⁰·N nats, for N rows, the first move in scan order whose gain is
within τ of the best is applied.  Moves are scanned as additions,
deletions, then reversals, each in (child, parent) order.  A
score-equivalent score gives Markov-equivalent moves equal gains in exact
arithmetic (Chickering 2002), so without τ such ties would go to rounding,
and a gain of rounding size would count as an improvement.  The engine
keeps two gain arrays, each child's family score with each node added to or
deleted from its parents (Chickering 2002 caches such deltas); scores
decompose per family, so after a move only the rows of the one or two
children whose parents changed are refilled.  Family scores are cached by
(child, parent bit mask).

The graph is kept in place, as parent bit masks, an edge matrix and an
ancestor matrix, and each accepted move updates them rather than rebuilding
the graph (Giudici & Castelo 2003 update the ancestor matrix the same way).
An addition p -> c ORs what p reaches into the rows of c and its
descendants.  A deletion recomputes c and its descendants, each from its
parents, in the order of their old ancestor counts within that set: removing
an edge only removes ancestor relations, so that order stays topological.
A reversal is a deletion, then an addition.  Legality comes as boolean
masks from the two matrices, and one masked argmax picks the move.  One
:class:`Dag` is built per search, of the graph returned, and its
construction validates it.  ``SearchConfig(max_parents=1)`` restricts the
search to forests of trees.

Two plain ``score(child, parent_sets)`` functions of (moments, rows), each
carrying its τ as ``score.tolerance``, plug into the same engine.  Each call
passes one child and a non-empty list of parent sets of one size, and gets
the families' scores back as an array;
each scorer reads the list from its moment matrix in one gather and fits it
in one batch, with the fitter that fits a model's families of one size:

* the copula-network score — each family's maximized sum of (expected) log
  ratio terms, read from the score table's second-moment matrix, minus the
  penalty for its one correlation; marginal terms are structure-invariant;
* the linear-Gaussian score — each family's maximized conditional
  log-likelihood, a Schur complement of the (expected) mean-centred
  covariance, minus the penalty for its ``len(parents) + 2`` parameters.

The copula moments hold the likelihood bound's expectations, read from the
data alone, and so do complete-data Gaussian moments: those kinds run one
search and one fit.  Only the Gaussian E-step with hidden cells reads the
model, and there learning is structural EM (Friedman 1998): each round
searches on the current model's expected moments, climbing from the model's
own graph, and the new graph's EM starts from the M-step on those very
moments; the loop stops when a search returns the graph it started from.
"""

from dataclasses import dataclass

import numpy as np

from .cbn import _score_table, fit_missing
from .copula import family_stats
from .dag import Dag
from .errors import ConvergenceError, InvalidInputError, OutOfRangeError, ValidationError, _integer
from .gaussian_bn import (
    _em,
    _fit_from_moments,
    _mean_cov,
    em_fit_lg,
    expected_moments,
    family_ll_from_moments,
)

__all__ = [
    "SearchConfig",
    "ScoredStructure",
    "bic_penalty",
    "greedy_search",
]

# Cap on the searches of one structural-EM loop (lgbn with hidden cells); a
# graph that still moves in the last one raises.
_STRUCTURE_ROUNDS = 10
# Cap on accepted moves of one greedy search; a move that still gains more than τ raises.
_MAX_MOVES = 1000
# Gains within _TIE nats per row of each other are ties, and a gain must exceed
# that much to count: a family score sums N rows' terms, so its rounding grows with N.
_TIE = 2.0**-30


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

    score.tolerance = _TIE * num_rows
    return score


def _gaussian_score(mean, cov, num_rows):
    """Penalized linear-Gaussian family scores of one child's parent sets of
    one size, from the mean and centred covariance."""
    def score(child, parent_sets):
        penalty = bic_penalty(len(parent_sets[0]) + 2, num_rows)
        return family_ll_from_moments(mean, cov, child, parent_sets, num_rows) - penalty

    score.tolerance = _TIE * num_rows
    return score


def _with(ps, p):
    return tuple(sorted((*ps, p)))


def _without(ps, p):
    return tuple(q for q in ps if q != p)


class _Graph:
    """The search's graph, updated in place by each accepted move.

    ``parents[v]`` is node v's sorted parent tuple and ``bits[v]`` the same
    set as a bit mask, the family cache's key.  ``edges[c, p]`` is 1.0 when
    p -> c, and ``reach[v, p]`` is 1.0 when p is v or one of v's ancestors.
    Both matrices are float so that reversal legality is one BLAS product.
    """

    def __init__(self, num_vars):
        self.parents = [()] * num_vars
        self.bits = [0] * num_vars
        self.edges = np.zeros((num_vars, num_vars))
        self.reach = np.eye(num_vars)

    def legal(self, max_parents):
        """Boolean (3, child, parent) masks of the legal additions, deletions
        and reversals of the edge parent->child.

        Adding parent->child closes a cycle iff child reaches parent.
        Reversing it closes one iff another parent of child has parent as an
        ancestor; as parent reaches itself, iff more than one of child's
        parents reaches parent.
        """
        edges = self.edges > 0.0
        room = self.edges.sum(axis=1) < max_parents
        add = ~edges & (self.reach.T == 0.0) & room[:, None]
        reverse = edges & room[None, :] & (self.edges @ self.reach == 1.0)
        return np.stack([add, edges, reverse])

    def add(self, child, parent):
        """Adds parent->child: child and its descendants gain what parent reaches."""
        self.parents[child] = _with(self.parents[child], parent)
        self.bits[child] |= 1 << parent
        self.edges[child, parent] = 1.0
        below = self.reach[:, child] > 0.0
        self.reach[below] = np.maximum(self.reach[below], self.reach[parent])

    def delete(self, child, parent):
        """Deletes parent->child: child and its descendants are each recomputed
        from their parents.  A deletion only removes ancestor relations, so
        ordering them by their old ancestor counts within the set keeps every
        node after its parents."""
        self.parents[child] = _without(self.parents[child], parent)
        self.bits[child] &= ~(1 << parent)
        self.edges[child, parent] = 0.0
        below = np.flatnonzero(self.reach[:, child])
        counts = self.reach[np.ix_(below, below)].sum(axis=1)
        for node in below[np.argsort(counts)].tolist():
            self.reach[node] = self.edges[node] @ self.reach > 0.0
            self.reach[node, node] = 1.0

    def reverse(self, child, parent):
        """Reverses parent->child: a deletion, then child->parent's addition."""
        self.delete(child, parent)
        self.add(parent, child)


def _search(num_vars, score, config, start=None):
    """Best-ascent engine: climbs from the graph ``start`` (the empty graph
    when None) while some move gains more than the scorer's tolerance τ,
    ``score.tolerance``, and returns the family scores it maximized;
    ``ConvergenceError`` if one still does after ``_MAX_MOVES`` moves.

    Each step applies the first move in scan order whose gain is within τ of
    the best gain.  Markov-equivalent moves of a score-equivalent score tie in
    exact arithmetic (Chickering 2002), so the first maximum alone would break
    such ties by rounding; τ = ``_TIE`` · N is far above a family score's
    rounding and far below any gain that a real dependence earns.

    ``added[c, p]`` holds the score of c's family with p added and
    ``deleted[c, p]`` with p deleted; a reversal gains
    ``((deleted[c, p] - current[c]) + added[p, c]) - current[p]``.  An entry
    is filled when a legal move first needs it, and a child's rows are
    emptied (set to NaN) when its parents change.  A child's missing
    additions are scored in one ``score`` call and its missing deletions in
    another, so every call gets a non-empty list of parent sets of one size,
    |ps| + 1 or |ps| - 1; ``start``'s families come first, one call each.  No
    family is scored twice: the cache is keyed by
    (child, parent bit mask), a family seen before, NaN-scored ones included,
    is read from it, and a list with nothing left to score makes no call;
    sorted parent tuples are built only for the families sent to ``score``.
    The graph is one :class:`_Graph`, ``start``'s edges added to an empty one,
    updated in place by each accepted move, and the one :class:`Dag` built,
    at the end, validates the result."""
    scored = {}
    graph = _Graph(num_vars)
    for child, parents in enumerate(() if start is None else start.parents):
        for parent in parents:
            graph.add(child, parent)
    for i in range(num_vars):
        scored[i, graph.bits[i]] = score(i, [graph.parents[i]])[0]
    current = np.array([scored[i, graph.bits[i]] for i in range(num_vars)])
    added, deleted = np.full((2, num_vars, num_vars), np.nan)
    tie = score.tolerance

    for accepted in range(_MAX_MOVES + 1):
        # legal[kind] for the additions, deletions and reversals.
        legal = graph.legal(config.max_parents)
        # need[0] and need[1]: the empty entries of added and deleted that a legal move reads.
        need = np.stack([(legal[0] | legal[2].T) & np.isnan(added), legal[1] & np.isnan(deleted)])
        for child in np.nonzero(need.any(axis=(0, 2)))[0].tolist():
            ps, bits = graph.parents[child], graph.bits[child]
            for table, mask, edit in zip((added, deleted), need[:, child], (_with, _without)):
                cols = np.nonzero(mask)[0].tolist()
                # Adding or deleting p toggles bit p.
                keys = [(child, bits ^ (1 << p)) for p in cols]
                todo = [(key, p) for key, p in zip(keys, cols) if key not in scored]
                if todo:
                    values = score(child, [edit(ps, p) for _, p in todo])
                    scored.update(zip([key for key, _ in todo], values))
                table[child, cols] = [scored[key] for key in keys]

        add_gain = added - current[:, None]
        delete_gain = deleted - current[:, None]
        gains = np.stack([add_gain, delete_gain, (delete_gain + added.T) - current[None, :]])
        gains = np.where(legal & ~np.isnan(gains), gains, -np.inf)
        best_gain = float(gains.max())
        if not best_gain > tie:
            break
        # Scan order is the flat order: additions, deletions, then reversals,
        # each (child, parent)-ordered; argmax finds the first within τ of the best.
        best = int(np.argmax(gains.reshape(-1) >= best_gain - tie))
        if accepted == _MAX_MOVES:
            raise ConvergenceError(f"search still gains {best_gain!r} after {_MAX_MOVES} moves")
        kind, child, parent = (int(i) for i in np.unravel_index(best, gains.shape))
        (graph.add, graph.delete, graph.reverse)[kind](child, parent)
        for node in (child, parent) if kind == 2 else (child,):
            current[node] = scored[node, graph.bits[node]]
            added[node] = deleted[node] = np.nan

    dag = Dag(num_vars, tuple(graph.parents))
    return ScoredStructure(dag, float(sum(current)), tuple(current))


def greedy_search(data, config, model_kind="cbn"):
    """Best-ascent structure search.

    The first search climbs from the empty graph.  Under the linear-Gaussian
    baseline with hidden cells, structural-EM rounds follow, each climbing
    from the last round's graph, until a search returns that graph.

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
    """``(ScoredStructure, model fitted to its dag)``: one search and one fit,
    except for lgbn with hidden cells, whose E-step reads the model."""
    if model_kind == "cbn":
        score, fit = _copula_score(_score_table(data).second, data.num_rows), fit_missing
    elif model_kind == "lgbn" and data.fully_observed:
        score, fit = _gaussian_score(*_mean_cov(data.values), data.num_rows), em_fit_lg
    elif model_kind == "lgbn":
        return _structural_em(data, config)
    else:
        raise InvalidInputError(f"unknown model_kind {model_kind!r}")
    result = _search(data.num_cols, score, config)
    return result, fit(data, result.dag)


def _structural_em(data, config):
    """Structural EM (Friedman 1998) for lgbn with hidden cells.

    EM fits the empty graph from its independent-Gaussian start.  Then each
    round searches on the model's expected moments, climbing from the
    model's own graph, and stops when the search returns that graph.  A new
    graph's EM starts from the M-step on the very moments its search scored,
    so each round improves on the last rather than starting again, and the
    next round's moments come from that EM's last pass, which conditions on
    the model it returns.  A graph that still moves in search
    ``_STRUCTURE_ROUNDS`` raises ``ConvergenceError``."""
    model = em_fit_lg(data, Dag.empty(data.num_cols))
    mean, cov, num_rows = expected_moments(model, data)
    for _ in range(_STRUCTURE_ROUNDS):
        result = _search(data.num_cols, _gaussian_score(mean, cov, num_rows), config, model.dag)
        if result.dag.parents == model.dag.parents:
            return result, model
        model, mean, cov = _em(data, _fit_from_moments(mean, cov, result.dag, data.column_names))
    raise ConvergenceError(
        f"structure search still moves the graph after {_STRUCTURE_ROUNDS} structural-EM rounds"
    )
