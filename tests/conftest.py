"""Shared fixtures, synthetic-data generators and the dense-kernel,
translation-table, model-file, CSV-reading, quadrature, Gaussian-conditioning and
structure-search oracles for the test suite."""

import csv
import functools
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import erfc, logsumexp, ndtr, roots_hermitenorm, roots_legendre

from copulabn.cbn import CbnModel
from copulabn.dag import Dag
from copulabn.data import MaskedDataset
from copulabn.errors import (
    ConvergenceError,
    DegenerateColumnError,
    EmptyInputError,
    OutOfRangeError,
    ParseError,
    SingularDesignError,
)
from copulabn.gaussian_bn import _VARIANCE_FLOOR
from copulabn.marginals import _HERMITE_TERMS, _INV_SQRT_PI, _TRANSLATE, CDF_CEIL, CDF_FLOOR
from copulabn.structure import _MAX_MOVES, ScoredStructure

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
WINE_CSV = DATA_DIR / "wine_quality_red.csv"
CRIME_CSV = DATA_DIR / "communities_crime.csv"


def require_dataset(path):
    """Skip the calling test when a benchmark dataset has not been fetched."""
    if not path.exists():
        pytest.skip(
            f"{path.name} not present under data/; run scripts/fetch_datasets.py "
            "on a machine with network access and copy the result in"
        )
    return path


@pytest.fixture
def wine_path():
    return require_dataset(WINE_CSV)


@pytest.fixture
def crime_path():
    return require_dataset(CRIME_CSV)


def dense_kde(marginal, x):
    """Dense-kernel oracle of a ``KdeMarginal``: (pdf, cdf, log_pdf) at the
    1-d points ``x``, each summed over every kernel centre.

    This was the package's own kernel before the fast Gauss transform: one
    exp and one ndtr per (point, centre) pair, the cdf clamped to
    ``[CDF_FLOOR, CDF_CEIL]``, and ``logsumexp`` for the log density where
    the pdf is below the normal floating-point range.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    h = marginal.bandwidth
    t = (x[:, None] - marginal.samples[None, :]) / h
    pdf = np.exp(-0.5 * t * t).mean(axis=1) * (1.0 / np.sqrt(2.0 * np.pi) / h)
    cdf = np.clip(ndtr(t).mean(axis=1), CDF_FLOOR, CDF_CEIL)
    log_norm = np.log(marginal.samples.size * h * np.sqrt(2.0 * np.pi))
    normal = pdf >= np.finfo(float).tiny
    log_pdf = logsumexp(-0.5 * t * t, axis=1) - log_norm
    log_pdf[normal] = np.log(pdf[normal])
    return pdf, cdf, log_pdf


def translated(moments, delta):
    """Source boxes' shares of their target boxes' tables, one column per
    (target, source) pair: the moments ``A_a`` of the source and the offset
    ``delta`` = (t - c) / w of the target's centre t from the source's c.

    Returns the sums ``sum_a A_a h_(a+b)(delta)`` for b < ``_HERMITE_TERMS``
    (rows b) and the kernel-cdf sum at t,
    ``A_0 erfc(-delta) / 2 - pi**-0.5 sum_{a>=1} A_a h_(a-1)(delta)``.  The
    Hermite functions come from one recurrence
    h_n = 2 delta h_(n-1) - 2(n-1) h_(n-2), from h_0 = exp(-delta**2); each
    sum runs in order of a.

    This was the package's own translation, run per pair at the pair's
    offset, before the table was built from fixed offset matrices.
    """
    terms = moments.shape[0]
    herm = np.empty((2 * terms - 1, delta.size))
    two_delta = 2.0 * delta
    herm[0] = np.exp(-delta * delta)
    herm[1] = two_delta * herm[0]
    for n in range(2, 2 * terms - 1):
        herm[n] = two_delta * herm[n - 1] - (2.0 * (n - 1)) * herm[n - 2]
    dens = moments[0] * herm[:terms]
    series = moments[1] * herm[0]
    for a in range(1, terms):
        dens += moments[a] * herm[a : a + terms]
        if a > 1:
            series += moments[a] * herm[a - 1]
    return dens, 0.5 * moments[0] * erfc(-delta) - _INV_SQRT_PI * series


def translated_table(marginal):
    """Translation oracle of a marginal's own table, ``KdeMarginal._table``:
    its (largest box count, coef, base), from :func:`translated` at each
    (target, source) pair's offset.  Each target adds its sources from left
    to right, and then its base the count of centres left of its reach."""
    s = np.sort(marginal.samples)
    width = marginal.bandwidth * np.sqrt(2.0)
    key = np.floor((s - s[0]) / width)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[starts, s.size])
    source = key[starts]
    origins = s[0] + (source + 0.5) * width
    d = (s - np.repeat(origins, counts)) / width
    moments = np.zeros((_HERMITE_TERMS, source.size))
    term = np.ones(s.size)
    for a in range(_HERMITE_TERMS):
        moments[a] = np.add.reduceat(term, starts)
        term = term * d / (a + 1)
    keys = np.unique(source[:, None] + np.arange(-_TRANSLATE, _TRANSLATE + 1))
    centres = s[0] + (keys + 0.5) * width
    left = np.r_[0.0, np.cumsum(counts, dtype=float)]
    coef = np.zeros((_HERMITE_TERMS, 2 * keys.size + 1))
    base = np.zeros(2 * keys.size + 1)
    for offset in range(_TRANSLATE, -_TRANSLATE - 1, -1):
        target = np.searchsorted(keys, source + offset)
        dens, cum = translated(moments, (centres[target] - origins) / width)
        coef[:, target] += dens
        base[target] += cum
    base += left[np.searchsorted(source, np.r_[keys - _TRANSLATE, keys, np.inf])]
    b = np.arange(_HERMITE_TERMS)
    coef *= np.array([(-1.0) ** i / math.factorial(i) for i in b])[:, None]
    return float(counts.max()), np.stack([coef, coef * (_INV_SQRT_PI / (b + 1.0))[:, None]]), base


def model_document(model):
    """Model-file oracle: the text of a v1 model document, every list
    rendered by ``json.dumps(indent=2)``.

    This was the package's own writer before it joined the samples apart
    from the pure-Python encoder.
    """
    doc = {
        "format": "copulabn-model",
        "version": 1,
        "model_kind": "cbn" if isinstance(model, CbnModel) else "lgbn",
        "column_names": list(model.column_names),
        "parents": [list(ps) for ps in model.dag.parents],
    }
    if isinstance(model, CbnModel):
        doc["rho"] = list(model.rho)
        doc["marginals"] = [
            {"bandwidth": m.bandwidth, "samples": m.samples.tolist()} for m in model.marginals
        ]
    else:
        doc["intercepts"] = list(model.intercepts)
        doc["coefficients"] = [list(cs) for cs in model.coefficients]
        doc["variances"] = list(model.variances)
    return json.dumps(doc, indent=2) + "\n"


def csv_reader_load(path):
    """CSV-reading oracle: ``load_csv`` as the csv module reads a file, every
    non-blank cell through Python ``float()`` of the stripped text.

    This was the package's only reader before the one-shot ``np.loadtxt``
    parse.  It parsed 64 rows at a time, which changes no value and no
    message: a bad cell on a row read before a ragged row, a line the csv
    module rejects, or bytes that are not UTF-8 is reported first either way.
    """
    def unreadable(err):
        if isinstance(err, UnicodeDecodeError):
            return ParseError(f"{path}: not UTF-8 text ({err.reason})")
        return ParseError(f"{path}: line {reader.line_num}: {err}")

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        except (csv.Error, UnicodeDecodeError) as err:
            raise unreadable(err) from None
        names = [h.strip() for h in header]
        if any(not n for n in names):
            raise ParseError(f"{path}: header has an empty column name")
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: header has duplicate column names")
        rows, failure = [], None
        try:
            for r, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(names):
                    failure = ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(names)}")
                    break
                rows.append((r, row))
        except (csv.Error, UnicodeDecodeError) as err:
            failure = unreadable(err)
    values = np.full((len(rows), len(names)), np.nan)
    for i, (r, row) in enumerate(rows):
        for c, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            where = f"{path}: row {r}, column {c + 1} ({names[c]})"
            try:
                values[i, c] = float(cell)
            except ValueError:
                raise ParseError(f"{where}: cannot parse {cell!r} as a number") from None
            if not math.isfinite(values[i, c]):
                raise ParseError(f"{where}: {cell!r} is not a finite number")
    if failure is not None:
        raise failure
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    data = MaskedDataset.from_values(values, tuple(names))
    for j, name in enumerate(data.column_names):
        col = data.values[data.observed[:, j], j]
        if col.size < 2:
            raise DegenerateColumnError(f"column '{name}' has {col.size} observed values; need at least 2")
        if float(col.max()) == float(col.min()):
            raise DegenerateColumnError(f"column '{name}' is constant; it cannot be modeled")
    return data


def chain_scores(rho, num_vars, num_rows, rng):
    """Normal scores from a first-order chain: z_j = rho * z_{j-1} + noise.

    This is exactly a chain-structured network of bivariate Gaussian
    copulas (edge correlation rho) with standard normal marginals.
    """
    z = np.empty((num_rows, num_vars))
    z[:, 0] = rng.standard_normal(num_rows)
    sd = np.sqrt(1.0 - rho * rho)
    for j in range(1, num_vars):
        z[:, j] = rho * z[:, j - 1] + sd * rng.standard_normal(num_rows)
    return z


def equicorrelated_scores(rho, dim, num_rows, rng):
    """Normal scores with a uniform-correlation covariance."""
    cov = np.full((dim, dim), float(rho))
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((num_rows, dim)) @ chol.T


_WARPS = {
    "identity": lambda z: z,
    "skew": lambda z: np.exp(z / 2.0) + 0.3 * z,
    "cube": lambda z: z + 0.25 * z**3,
    "shift": lambda z: 3.0 * z - 5.0,
}


def warp_columns(z, kinds):
    """Apply per-column strictly monotone transforms.

    The transforms change the marginals (skewed, heavy-tailed, ...) while
    leaving the underlying copula untouched, which is what makes the
    copula-network model well specified and a joint-Gaussian fit not.
    """
    out = np.empty_like(z)
    for j, kind in enumerate(kinds):
        out[:, j] = _WARPS[kind](z[:, j])
    return out


def cycle_warps(num_cols):
    order = ["skew", "cube", "identity", "shift"]
    return [order[j % len(order)] for j in range(num_cols)]


# ------------------------------------------------------ quadrature oracles
#
# Gauss-Legendre on (0, 1) integrates densities in the copula's u
# coordinates; Gauss-Hermite takes expectations under independent standard
# normals.  The package scores hidden cells in closed form; these explicit
# rules are the independent check on it.


def _check_nodes(num_nodes):
    if not isinstance(num_nodes, (int, np.integer)) or num_nodes < 1:
        raise OutOfRangeError(f"node count must be a positive integer, got {num_nodes!r}")


@lru_cache(maxsize=64)
def unit_legendre_rule(num_nodes):
    """Gauss-Legendre nodes and weights mapped to (0, 1).

    Parameters
    ----------
    num_nodes : int
        Number of quadrature points.

    Returns
    -------
    nodes, weights : ndarray
        Arrays of shape ``(num_nodes,)``; weights sum to 1.
    """
    _check_nodes(num_nodes)
    x, w = roots_legendre(num_nodes)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def normal_hermite_rule(num_nodes):
    """Gauss-Hermite nodes and weights for the standard normal weight.

    Uses the probabilists' convention: ``sum(w * g(z)) == E[g(Z)]`` for
    ``Z ~ N(0, 1)``, exactly when ``g`` is a polynomial of degree
    ``< 2 * num_nodes``.

    Returns
    -------
    nodes, weights : ndarray
        Arrays of shape ``(num_nodes,)``; weights sum to 1.
    """
    _check_nodes(num_nodes)
    z, w = roots_hermitenorm(num_nodes)
    weights = w / np.sqrt(2.0 * np.pi)
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights


def tensor_rule(nodes, weights, ndim):
    """Tensor product of a one-dimensional rule over ``ndim`` coordinates.

    Returns
    -------
    points : ndarray of shape (num_nodes ** ndim, ndim)
    weights : ndarray of shape (num_nodes ** ndim,)
    """
    _check_nodes(ndim)
    grids = np.meshgrid(*([nodes] * ndim), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * ndim), indexing="ij")
    joint = np.ones(points.shape[0])
    for g in wgrids:
        joint = joint * g.reshape(-1)
    return points, joint


# ---------------------------------------------- Gaussian-conditioning oracle
#
# The package conditions in information form, batched by the number of
# hidden cells; this per-pattern kernel in covariance form is the
# independent check on it.

_LOG_2PI = np.log(2.0 * np.pi)


def condition_by_pattern(mean, cov, values, observed, moments):
    """Exact Gaussian conditioning of each row's hidden cells on its observed ones.

    Rows are grouped by missing pattern, and each pattern's observed block
    Sigma_OO is factored once.  That factor gives every row's log marginal
    (log-determinant and triangular solve) and, when ``moments`` is true, the
    E-step gain Sigma_HO Sigma_OO^-1.  Returns ``(log_rows, s1, s2)``: rows
    with nothing observed score 0; ``s1`` and ``s2`` are the summed
    conditional first and second moments of x (hidden blocks filled with
    their conditional means, plus each pattern's conditional covariance once
    per row), or None when ``moments`` is false.
    """
    n = mean.size
    log_rows = np.zeros(values.shape[0])
    s1 = np.zeros(n) if moments else None
    s2 = np.zeros((n, n)) if moments else None
    groups = {}
    for i, pattern in enumerate(observed):
        groups.setdefault(pattern.tobytes(), []).append(i)
    for rows in groups.values():
        rows = np.asarray(rows)
        pattern = observed[rows[0]]
        obs = np.nonzero(pattern)[0]
        if obs.size:
            factor = cho_factor(cov[np.ix_(obs, obs)], lower=True)
            x_obs = values[np.ix_(rows, obs)]
            diff = x_obs - mean[obs]
            logdet = 2.0 * np.log(np.diag(factor[0])).sum()
            sol = solve_triangular(factor[0], diff.T, lower=True)
            log_rows[rows] = -0.5 * (obs.size * _LOG_2PI + logdet + (sol * sol).sum(axis=0))
        if not moments:
            continue
        hid = np.nonzero(~pattern)[0]
        if hid.size == 0:
            s1 += x_obs.sum(axis=0)
            s2 += x_obs.T @ x_obs
            continue
        completed = np.empty((rows.size, n))
        if obs.size == 0:
            completed[:] = mean
            cond_cov = cov
        else:
            cov_oh = cov[np.ix_(obs, hid)]
            gain = cho_solve(factor, cov_oh).T  # (|H|, |O|)
            completed[:, obs] = x_obs
            completed[:, hid] = mean[hid] + diff @ gain.T
            cond_cov = np.zeros((n, n))
            cond_cov[np.ix_(hid, hid)] = cov[np.ix_(hid, hid)] - gain @ cov_oh
        s1 += completed.sum(axis=0)
        s2 += completed.T @ completed + rows.size * cond_cov
    return log_rows, s1, s2


def family_from_moments(mean, cov, child, parents):
    """One family's least-squares parameters from the mean and centred
    covariance C, one ``solve`` per family: the oracle of the batched
    ``gaussian_bn._family_from_moments``.

    Returns (intercept, coefficients, ml_variance): beta = C_pp^-1 C_pc, the
    intercept E x_c - beta . E x_p and the variance C_cc - beta . C_pc.
    Raises ``SingularDesignError`` when the parents' correlation matrix has
    an eigenvalue no larger than its rounding.
    """
    p = list(parents)
    cpp, cpc = cov[np.ix_(p, p)], cov[p, child]
    var, rounding = cpp.diagonal(), 2.0**-40 * (cpp.diagonal() + mean[p] ** 2)
    if p and (not (var > rounding).all() or (
        np.linalg.eigvalsh(cpp / np.sqrt(np.outer(var, var)))[0] <= (rounding / var).max()
    )):
        raise SingularDesignError(
            f"collinear parents {tuple(parents)} for node {child}: design matrix is rank deficient"
        )
    beta = np.linalg.solve(cpp, cpc)
    variance = cov[child, child] - beta @ cpc
    intercept = mean[child] - beta @ mean[p]
    return float(intercept), tuple(float(b) for b in beta), max(float(variance), _VARIANCE_FLOOR)


# ------------------------------------------------- structure-search oracle


def _with(ps, p):
    return tuple(sorted((*ps, p)))


def _without(ps, p):
    return tuple(q for q in ps if q != p)


def _rescan_moves(dag, max_parents):
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


def rescan_search(num_vars, score, config):
    """The best-ascent engine that rescans every legal move at every step,
    kept as the oracle of ``structure._search``: ``score(child, parents)``
    gives one family's score."""
    dag = Dag.empty(num_vars)
    fscore = functools.cache(score)
    current = [fscore(i, ()) for i in range(num_vars)]

    for accepted in range(_MAX_MOVES + 1):
        best_gain = 0.0
        best_move = None
        for move in _rescan_moves(dag, config.max_parents):
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
