"""Score-based greedy structure search with a BIC penalty.

Best-ascent hill climbing over add/delete/reverse edge moves, starting from
the empty graph: every legal move is scored, the best strictly improving
one is applied, and the search stops when none improves.  Scores decompose
per family, so a move re-scores only the touched families; results are
deterministic (moves are enumerated in (child, parent) order and the first
maximum wins).  The engine steps from one :class:`Dag` to the next: each
move is the list of families it changes, and its acyclicity is read from
the current graph's ``Dag.ancestors`` bit sets (Giudici & Castelo 2003).
``SearchConfig(max_parents=1)`` restricts the search to forests of trees.

Two plain ``score(child, parents)`` functions of (moments, rows) plug into the same engine:

* the copula-network score — each family's maximized sum of (expected) log
  ratio terms, read from the score table's second-moment matrix, minus the
  penalty for its one correlation; marginal terms are structure-invariant;
* the linear-Gaussian score — each family's maximized conditional
  log-likelihood from (expected) moment matrices minus the penalty for its
  ``len(parents) + 2`` parameters.

Both kinds learn in one structural-EM loop: search on the moments the
current model gives, fit the graph found, and repeat while the moments read
the model, as only the Gaussian E-step with hidden cells does; the copula
moments hold the likelihood bound's expectations, read from the data alone.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .cbn import _score_table, fit_missing
from .copula import family_stats
from .dag import Dag
from .errors import ConvergenceError, InvalidInputError, OutOfRangeError, ValidationError
from .gaussian_bn import (
    _moments_from_complete,
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
        Parent-set size cap (default 3); 1 restricts the search to forests
        of trees.
    """

    max_parents: int = 3

    def __post_init__(self):
        if self.max_parents < 0:
            raise ValidationError(f"max_parents must be >= 0, got {self.max_parents}")


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
    """Penalized copula family score: the maximized family objective minus
    the penalty for its one correlation; 0 without parents."""
    def score(child, parents):
        if not parents:
            return 0.0
        _, value = family_stats(second, num_rows, (child, *parents)).fit()
        return float(value) - bic_penalty(1, num_rows)

    return score


def _gaussian_score(mean, second, num_rows):
    """Penalized linear-Gaussian family score from moment matrices."""
    def score(child, parents):
        ll = family_ll_from_moments(mean, second, child, parents, num_rows)
        return float(ll) - bic_penalty(len(parents) + 2, num_rows)

    return score


def _with(ps, p):
    return tuple(sorted((*ps, p)))


def _without(ps, p):
    return tuple(q for q in ps if q != p)


def _moves(dag, max_parents):
    """Every legal move as the tuple of ``(node, new sorted parents)``
    changes it makes, in scan order: additions, deletions, then reversals,
    each (child, parent)-ordered.  ``dag``'s parent tuples are sorted, as the
    search keeps them.

    Adding parent->child closes a cycle iff child is an ancestor of parent.
    Reversing parent->child closes one iff another parent of child has
    parent as an ancestor.
    """
    parents, ancestors = dag.parents, dag.ancestors
    nodes = range(dag.num_vars)
    for child in nodes:
        if len(parents[child]) >= max_parents:
            continue
        for parent in nodes:
            if parent != child and parent not in parents[child] and not ancestors[parent] >> child & 1:
                yield ((child, _with(parents[child], parent)),)
    for child in nodes:
        for parent in parents[child]:
            yield ((child, _without(parents[child], parent)),)
    for child in nodes:
        for parent in parents[child]:
            if len(parents[parent]) < max_parents and not any(
                ancestors[q] >> parent & 1 for q in parents[child]
            ):
                yield (
                    (child, _without(parents[child], parent)),
                    (parent, _with(parents[parent], child)),
                )


def _search(num_vars, score, config):
    """Best-ascent engine: applies the best strictly improving move (first
    maximum in scan order) until none improves, and returns the family scores
    it maximized; ``ConvergenceError`` if one still improves after ``_MAX_MOVES``."""
    dag = Dag.empty(num_vars)
    fscore = functools.cache(score)
    current = [fscore(i, ()) for i in range(num_vars)]

    for accepted in range(_MAX_MOVES + 1):
        best_gain = 0.0
        best_move = None
        for move in _moves(dag, config.max_parents):
            # Left to right: a reversal gains ((new_c - cur_c) + new_p) - cur_p.
            gain = 0.0
            for node, ps in move:
                gain = gain + fscore(node, ps) - current[node]
            if gain > best_gain:
                best_gain = gain
                best_move = move
        if best_move is None:
            break
        if accepted == _MAX_MOVES:
            raise ConvergenceError(f"search still gains {best_gain!r} after {_MAX_MOVES} moves")
        parents = list(dag.parents)
        for node, ps in best_move:
            parents[node] = ps
            current[node] = fscore(node, ps)
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
        score = _gaussian_score(*_moments_from_complete(data.values), data.num_rows)
        score_for, fit = lambda _: score, em_fit_lg
    elif model_kind == "lgbn":
        def score_for(model):
            s1, s2, m = expected_moments(model, data)
            return _gaussian_score(s1 / m, s2 / m, m)

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
