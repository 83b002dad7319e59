"""The copula-network joint density model.

A :class:`CbnModel` combines a DAG, one kernel marginal per variable, and
one uniform-correlation Gaussian copula per family (node with parents),
held as its single correlation ``rho``, as in the v1 model file.  The joint
log density of a complete instance is

    sum_i [ log pdf_i(x_i) + log R_i(u_family) ]

where ``u_j = cdf_j(x_j)`` and ``R_i`` is the family's copula density ratio
(:func:`copulabn.copula.ratio_log`); roots contribute no ratio term.

Partially observed data is handled without posterior inference: the
log-likelihood is replaced by its decomposable lower bound, obtained by
moving each instance's hidden coordinates inside an expectation under their
own marginals.  After the probability integral transform the hidden
coordinates are independent Uniform(0,1) — equivalently their normal scores
are independent standard normals.  Each family's log ratio is affine in the
statistics ``q = sum z^2`` and ``s^2 = (sum z)^2``, so its expectation
needs only E[z] = 0 and E[z^2] = 1: with ``t`` hidden members,
E[q] = q_obs + t and E[s^2] = s_obs^2 + t, in closed form.

Fitting is two-stage: marginals first from each column's observed values,
then each family's rho by exact maximization, over the valid interval, of
its sum of ratio terms over the rows where the whole family is observed.
Only a family with fewer than two such rows maximizes instead its expected
ratio terms over all rows, its share of the bound.  The bound equals the
complete-data log-likelihood exactly (bitwise, not just numerically) when
nothing is hidden.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._normal import ndtr
from .copula import (
    _check_rho,
    _rows,
    _scores,
    _second_moments,
    conditional_z_params,
    family_stats,
    ratio_log_from_z,
)
from .dag import Dag
from .data import SEED_TAG_SAMPLE
from .errors import InvalidInputError, OutOfRangeError, ValidationError, _check_columns, _integer
from .marginals import fit_kde

__all__ = [
    "CbnModel",
    "log_density",
    "log_density_rows",
    "fit_complete",
    "fit_missing",
    "lower_bound",
    "lower_bound_rows",
    "EnergyCheckResult",
    "energy_identity_check",
    "forward_sample",
]


@dataclass(frozen=True, eq=False)
class CbnModel:
    """Immutable fitted model: graph, marginals and one rho per family, the
    fields of the v1 model file.

    Attributes
    ----------
    dag : Dag
    marginals : tuple of KdeMarginal, one per variable.
    rho : tuple of float or None, one per node: None exactly at the roots,
        elsewhere the correlation of the family's uniform-correlation copula,
        inside ``rho_bounds(1 + len(parents))``.
    column_names : tuple of str
    """

    dag: Dag
    marginals: tuple
    rho: tuple
    column_names: tuple

    def __post_init__(self):
        n = self.dag.num_vars
        if len(self.marginals) != n:
            raise ValidationError(f"{len(self.marginals)} marginals for {n} variables")
        if len(self.rho) != n:
            raise ValidationError(f"{len(self.rho)} rho values for {n} variables")
        if len(self.column_names) != n:
            raise ValidationError(f"{len(self.column_names)} names for {n} variables")
        for i, (parents, r) in enumerate(zip(self.dag.parents, self.rho)):
            if (r is None) == bool(parents):
                raise ValidationError(f"node {i} has {len(parents)} parents but rho {r!r}")
            if parents:
                _check_rho(1 + len(parents), r)
        object.__setattr__(self, "marginals", tuple(self.marginals))
        object.__setattr__(self, "rho", tuple(None if r is None else float(r) for r in self.rho))
        object.__setattr__(self, "column_names", tuple(str(c) for c in self.column_names))

    @property
    def num_vars(self):
        return self.dag.num_vars

    def families(self):
        """(child, parents) pairs for every node that has parents."""
        return [(i, ps) for i, ps in enumerate(self.dag.parents) if ps]


def _add_family_terms(model, totals, z, observed):
    """``totals`` plus each family's per-row (expected) log ratio term, added
    one family at a time in node order."""
    for child, parents in model.families():
        cols = (child, *parents)
        term = ratio_log_from_z(model.rho[child], z[:, cols], observed[:, cols])
        totals = totals + term
    return totals


def _cell_scores(u, observed):
    """Normal scores of the observed cells of ``u``, from one :func:`_scores`
    call over the whole table; NaN at hidden cells."""
    z = np.full(u.shape, np.nan)
    z[observed] = _scores(u[observed])
    return z


def _row_totals(model, values, observed):
    """Each row's marginal log densities plus its family terms.  One kernel
    pass per column gives both the cells' log densities and their cdfs;
    hidden cells add exactly 0.0 and have NaN scores."""
    logpdf = np.zeros_like(values)
    u = np.empty(values.shape)
    for j, marginal in enumerate(model.marginals):
        idx = observed[:, j]
        u[idx, j], logpdf[idx, j] = marginal._cdf_and_log_pdf(values[idx, j])
    return _add_family_terms(model, logpdf.sum(axis=1), _cell_scores(u, observed), observed)


def log_density_rows(model, values):
    """Joint log density of fully observed rows; shape (rows,).

    ``values`` is an (m, n) array or one row; any other shape raises
    ``InvalidInputError`` naming it.
    """
    values = _rows(values)
    _check_columns(values.shape[1], model.num_vars, "model")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("log_density needs fully observed, finite rows")
    observed = np.ones(values.shape, dtype=bool)
    return _row_totals(model, values, observed)


def log_density(model, x):
    """Joint log density of one complete instance."""
    return float(log_density_rows(model, np.asarray(x, dtype=float).reshape(1, -1))[0])


def lower_bound_rows(model, data):
    """Per-instance value whose total :func:`lower_bound` returns.

    Fully observed rows get their exact joint log density (same arithmetic
    as :func:`log_density_rows`); rows with hidden cells get observed
    marginal terms plus expected ratio terms.
    """
    _check_columns(data.num_cols, model.num_vars, "model")
    return _row_totals(model, data.values, data.observed)


def lower_bound(model, data):
    """Lower bound on the observed-data log-likelihood.

    Sums, over instances, the observed cells' marginal log densities plus
    each family's expected log ratio term, the expectation running over the
    instance's hidden family members with their normal scores treated as
    independent standard normals (exactly what the probability integral
    transform makes them).  Equals the complete-data log-likelihood when
    nothing is hidden; never exceeds the true observed-data log-likelihood.
    """
    return float(np.sum(lower_bound_rows(model, data)))


def fit_missing(data, dag):
    """Fit a model from partially observed data.

    Marginals are fit to each column's observed values.  Each family's rho
    is then fit from the rows where the whole family is observed: under a
    missing-at-random mask those rows are an unbiased subsample, whereas
    the bound's expectation terms for partially hidden rows are maximized
    at rho = 0 regardless of the data (the hidden coordinates' surrogate
    distribution carries no dependence information) and would shrink the
    estimate by roughly the fraction of incomplete rows.  When a family has
    fewer than two fully observed rows, its rho falls back to maximizing
    the family's summed expected ratio terms over all rows — its share of
    the likelihood bound — so the fit is total either way.  Either way the
    rho is exact: :meth:`copulabn.copula.FamilyStats.fit` solves for it in
    closed form, for all families of one size in one call, each with its own
    row count and second moments, and each fitted rho goes straight into the
    model's ``rho`` tuple.

    Marginals and normal scores come from :func:`_score_table`, so after a
    structure search on the same ``data`` object neither is computed again.
    """
    _check_columns(data.num_cols, dag.num_vars, "graph")
    table = _score_table(data)
    rho = [None] * dag.num_vars
    for size, families in dag.families_by_size().items():
        if not size:
            continue
        complete = data.observed[:, families].all(axis=2)
        counts = complete.sum(axis=0)
        # Each family's own second moments: S over its sorted columns, read at
        # each column's rank, or the Z'Z of its complete rows, child first.
        cols = np.sort(families, axis=1)
        second = table.second[cols[:, :, None], cols[:, None, :]]
        index = np.argsort(np.argsort(families, axis=1), axis=1)
        for i in np.nonzero(counts >= 2)[0]:
            z = table.z[np.ix_(complete[:, i], families[i])]
            second[i], index[i] = z.T @ z, np.arange(size + 1)
        num_rows = np.where(counts >= 2, counts, data.num_rows).astype(float)
        fitted, _ = family_stats(second, num_rows, index).fit()
        for node, r in zip(families[:, 0].tolist(), fitted.tolist()):
            rho[node] = r
    return CbnModel(dag=dag, marginals=table.marginals, rho=rho, column_names=data.column_names)


def _normal_scores_from_marginals(marginals, values, observed):
    """Per-cell normal scores of the clamped cdf(x); NaN at hidden cells."""
    u = np.empty(values.shape)
    for j, marginal in enumerate(marginals):
        idx = observed[:, j]
        u[idx, j] = marginal.cdf(values[idx, j])
    return _cell_scores(u, observed)


# Score tables by dataset object.  MaskedDataset is frozen with eq=False (it
# hashes by identity) and its arrays are read-only copies, so a table stays
# valid while its key lives; a table holds those arrays, never the dataset.
_SCORE_TABLES = weakref.WeakKeyDictionary()


class _ScoreTable:
    """One dataset's fitted marginals and, built on first use, its read-only z and S."""

    def __init__(self, data):
        self.values, self.observed = data.values, data.observed
        self.marginals = tuple(fit_kde(data.values[data.observed[:, j], j]) for j in range(data.num_cols))

    @cached_property
    def z(self):
        z = _normal_scores_from_marginals(self.marginals, self.values, self.observed)
        z.setflags(write=False)
        return z

    @cached_property
    def second(self):
        second = _second_moments(self.z, self.observed)
        second.setflags(write=False)
        return second


def _score_table(data):
    """The score table of ``data``, built once per dataset object, so search
    and fit run the KDE fits and the O(rows x centers) transform once."""
    if data not in _SCORE_TABLES:
        _SCORE_TABLES[data] = _ScoreTable(data)
    return _SCORE_TABLES[data]


def fit_complete(data, dag):
    """Fit from fully observed data (two-stage: marginals, then per-family rho).

    The fitted model's complete-data log-likelihood is >= that of the same
    structure with all rho = 0.
    """
    if not data.fully_observed:
        raise InvalidInputError("fit_complete requires fully observed data; use fit_missing")
    return fit_missing(data, dag)


class EnergyCheckResult(NamedTuple):
    """Two routes to one instance's expected sum of log ratio terms."""

    bound_term: float
    energy_mc: float
    mc_standard_error: float


def energy_identity_check(model, instance, mc_samples, seed=0):
    """Cross-validate the bound's expectation against direct Monte Carlo.

    ``bound_term`` is the instance's contribution to :func:`lower_bound`
    minus its observed marginal log sum, i.e. the closed-form value of
    E[sum_i log R_i] with hidden coordinates integrated under their own
    marginals.  ``energy_mc`` estimates the same expectation by sampling
    hidden values directly from their kernel marginals (mixture draws:
    random kernel center plus bandwidth-scaled noise).  With no hidden
    coordinates both are the same exact sum of ratio terms and the standard
    error is 0.

    Parameters
    ----------
    instance : array_like, length num_vars
        One row; NaN marks hidden coordinates, and the others must be
        finite.
    mc_samples : int
        Monte Carlo sample count.
    seed : int
        Sampling seed.

    Returns
    -------
    EnergyCheckResult
    """
    x = np.asarray(instance, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"instance must be one row, got shape {x.shape}")
    _check_columns(x.size, model.num_vars, "model")
    if np.isinf(x).any():
        raise InvalidInputError("instance has an infinite coordinate")
    mc_samples = _integer(mc_samples, "mc_samples", 2, OutOfRangeError)
    seed = _integer(seed, "seed", 0, OutOfRangeError)
    observed = ~np.isnan(x)
    obs = observed[None, :]
    z = _normal_scores_from_marginals(model.marginals, x[None, :], obs)
    bound_term = float(_add_family_terms(model, np.zeros(1), z, obs)[0])

    if observed.all():
        return EnergyCheckResult(bound_term, bound_term, 0.0)

    rng = np.random.default_rng(np.random.SeedSequence([seed, SEED_TAG_SAMPLE]))
    draws = np.full((mc_samples, x.size), np.nan)
    for j in np.flatnonzero(~observed):
        marginal = model.marginals[j]
        centers = marginal.samples[rng.integers(0, marginal.samples.size, mc_samples)]
        draws[:, j] = centers + marginal.bandwidth * rng.standard_normal(mc_samples)
    drawn = np.broadcast_to(~observed, draws.shape)
    z_samples = np.where(drawn, _normal_scores_from_marginals(model.marginals, draws, drawn), z)
    total = _add_family_terms(model, np.zeros(mc_samples), z_samples, np.ones_like(drawn))
    energy_mc = float(total.mean())
    se = float(total.std(ddof=1) / np.sqrt(mc_samples))
    return EnergyCheckResult(bound_term, energy_mc, se)


def forward_sample(model, count, seed):
    """Ancestral sampling: ``count`` rows in the data scale.

    Roots draw u uniformly; each child draws its normal score from the
    family copula's conditional normal given the parents' scores; scores
    map back through ndtr and each marginal's quantile.  Deterministic
    given ``seed``.
    """
    count = _integer(count, "count", 1, OutOfRangeError)
    seed = _integer(seed, "seed", 0, OutOfRangeError)
    rng = np.random.default_rng(np.random.SeedSequence([seed, SEED_TAG_SAMPLE]))
    n = model.num_vars
    z = np.empty((count, n))
    u = np.empty((count, n))
    for node in model.dag.topological_order:
        parents = model.dag.parents[node]
        if not parents:
            u[:, node] = np.clip(rng.random(count), 1e-12, 1.0 - 1e-12)
            z[:, node] = _scores(u[:, node])
            continue
        mean, variance = conditional_z_params(model.rho[node], z[:, parents])
        z[:, node] = mean + np.sqrt(variance) * rng.standard_normal(count)
    children = [node for node, parents in enumerate(model.dag.parents) if parents]
    u[:, children] = np.clip(ndtr(z[:, children]), 1e-12, 1.0 - 1e-12)  # one call; ndtr is elementwise
    out = np.empty((count, n))
    for j in range(n):
        out[:, j] = model.marginals[j].quantile(u[:, j])
    return out
