"""Linear-Gaussian Bayesian network baseline.

Each node is normal with mean affine in its parents and constant noise
variance.  The joint is multivariate normal, so everything the benchmark
needs is closed form: fitting is per-family least squares, marginalizing
out hidden coordinates is Gaussian conditioning, and so is the EM E-step.
One kernel, :func:`_condition`, does all the conditioning in information
form: it reads the joint precision off the network and, per hidden-set
size |H|, factors every row's |H| x |H| precision block in one batched
call, which gives the rows' log marginals and, for EM, the expected
moments.  What depends only on the mask (the row groups and the flat
indices that gather each row's block) is planned apart, by :func:`_blocks`:
once per EM fit, whose mask is fixed, and once per call elsewhere, so a pass
does only the model's arithmetic.  Every family (complete-data fit, EM start
and M-step, search score) is least squares on one mean and one covariance C,
centred in two passes over the (completed) rows; families of one size (a
search's candidates, a fit's families) are solved as one batch,
:func:`_family_from_moments`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    EmptyInputError,
    InvalidInputError,
    SingularDesignError,
    ValidationError,
    _check_columns,
)

__all__ = [
    "LinearGaussianBn",
    "fit_complete_lg",
    "joint_gaussian",
    "log_marginal_lg",
    "log_marginal_lg_rows",
    "em_fit_lg",
    "expected_moments",
    "family_ll_from_moments",
]

_LOG_2PI = np.log(2.0 * np.pi)

# Noise variances below this are clamped so log densities stay finite.
_VARIANCE_FLOOR = 1e-9
# EM stops once the observed-data log-likelihood gains less than _EM_TOL
# nats in one iteration; still gaining after _EM_MAX_ITERS iterations is a
# ConvergenceError.
_EM_TOL = 1e-4
_EM_MAX_ITERS = 200


@dataclass(frozen=True)
class LinearGaussianBn:
    """Per-node affine-Gaussian conditionals on a DAG.

    Attributes
    ----------
    dag : Dag
    intercepts : tuple of float, all finite
    coefficients : tuple of tuples, all finite
        ``coefficients[i]`` aligns with ``dag.parents[i]``.
    variances : tuple of float, all > 0
    column_names : tuple of str
    """

    dag: object
    intercepts: tuple
    coefficients: tuple
    variances: tuple
    column_names: tuple

    def __post_init__(self):
        n = self.dag.num_vars
        intercepts = tuple(float(b) for b in self.intercepts)
        coefficients = tuple(tuple(float(c) for c in cs) for cs in self.coefficients)
        variances = tuple(float(v) for v in self.variances)
        names = tuple(str(c) for c in self.column_names)
        if not (len(intercepts) == len(coefficients) == len(variances) == len(names) == n):
            raise ValidationError("per-node parameter lists must all have num_vars entries")
        for i, (b, cs, v) in enumerate(zip(intercepts, coefficients, variances)):
            if len(cs) != len(self.dag.parents[i]):
                raise ValidationError(
                    f"node {i}: {len(cs)} coefficients for {len(self.dag.parents[i])} parents"
                )
            if not np.isfinite([b, *cs]).all():
                raise ValidationError(f"node {i}: intercept and coefficients must be finite")
            if not np.isfinite(v) or v <= 0.0:
                raise ValidationError(f"node {i}: variance must be positive, got {v}")
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "column_names", names)

    @property
    def num_vars(self):
        return self.dag.num_vars


def _family_from_moments(mean, cov, families):
    """Least-squares parameters of F families of one size k, each a row of
    ``families`` (child first), from the mean and centred covariance C.

    Returns (F,) intercepts E x_c - beta . E x_p, (F, k) coefficients
    beta = C_pp^-1 C_pc and (F,) ml variances C_cc - beta . C_pc, a Schur
    complement of C; ``SingularDesignError`` names the first collinear family.
    The blocks are read in one gather, rank-tested in one batched
    ``eigvalsh`` and solved in one batched ``solve``: exactly OLS for
    complete-data moments, and the EM M-step for expected moments.
    """
    families = np.asarray(families, dtype=np.intp)
    c, p = families[:, 0], families[:, 1:]
    cpp, cpc = cov[p[:, :, None], p[:, None, :]], cov[p, c[:, None]]
    # Rank is read from the parents' correlations, which rescaling cannot move.  Centring leaves
    # rounding of ~eps E[x^2] in a variance, ~eps E[x^2] / var in a correlation (2^-40 = 4096 eps).
    var = np.diagonal(cpp, axis1=1, axis2=2)
    rounding = 2.0**-40 * (var + mean[p] ** 2)
    singular = ~(var > rounding).all(axis=1)
    if p.shape[1]:
        # Correlations only of the sets whose variances all passed, so none divides by 0.
        ok, v = ~singular, var[~singular]
        corr = cpp[ok] / np.sqrt(v[:, :, None] * v[:, None, :])
        singular[ok] = np.linalg.eigvalsh(corr)[:, 0] <= (rounding[ok] / v).max(axis=1)
    if singular.any():
        child, *parents = families[int(np.argmax(singular))].tolist()
        raise SingularDesignError(
            f"collinear parents {tuple(parents)} for node {child}: design matrix is rank deficient"
        )
    beta = np.linalg.solve(cpp, cpc[:, :, None])[:, :, 0]
    variance = cov[c, c] - np.vecdot(beta, cpc)
    return mean[c] - np.vecdot(beta, mean[p]), beta, np.maximum(variance, _VARIANCE_FLOOR)


def _mean_cov(completed, hidden_cov=0.0):
    """Mean and covariance of the rows of ``completed``, centred in two passes
    (Chan, Golub & LeVeque 1983).  ``hidden_cov`` is the rows' summed
    conditional covariance of their hidden cells, which the E-step adds."""
    mean = completed.mean(axis=0)
    centred = completed - mean
    return mean, (centred.T @ centred + hidden_cov) / completed.shape[0]


def _fit_from_moments(mean, cov, dag, column_names):
    """M-step: the network whose families are least squares on the moments,
    one :func:`_family_from_moments` batch per parent count."""
    fits = {}  # node: (intercept, coefficients, variance)
    for families in dag.families_by_size().values():
        fits.update(zip(families[:, 0].tolist(), zip(*_family_from_moments(mean, cov, families))))
    intercepts, coefficients, variances = zip(*(fits[node] for node in range(dag.num_vars)))
    return LinearGaussianBn(dag, intercepts, coefficients, variances, column_names)


def fit_complete_lg(data, dag):
    """Per-family ordinary least squares with maximum-likelihood variances.

    Residuals are orthogonal to each family's regressors; every family's
    log-likelihood is >= the intercept-only fit of the same node.
    """
    if not data.fully_observed:
        raise InvalidInputError("fit_complete_lg requires fully observed data; use em_fit_lg")
    _check_columns(data.num_cols, dag.num_vars, "graph")
    max_family = max((len(ps) for ps in dag.parents), default=0) + 1
    if data.num_rows <= max_family + 1:
        raise InvalidInputError(
            f"need more than {max_family + 1} rows to fit families of size {max_family}"
        )
    return _fit_from_moments(*_mean_cov(data.values), dag, data.column_names)


def joint_gaussian(model):
    """Compile the network to its joint normal (mean, covariance).

    Moments propagate in topological order: a child's mean is affine in its
    parents' means; its covariance row is the same affine map of the
    parents' covariance rows plus its own noise variance on the diagonal.
    """
    n = model.num_vars
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    for node in model.dag.topological_order:
        parents = list(model.dag.parents[node])
        beta0 = model.intercepts[node]
        if not parents:
            mean[node] = beta0
            cov[node, node] = model.variances[node]
            continue
        beta = np.asarray(model.coefficients[node])
        mean[node] = beta0 + beta @ mean[parents]
        row = beta @ cov[parents, :]
        cov[node, :] = row
        cov[:, node] = row
        cov[node, node] = model.variances[node] + beta @ cov[np.ix_(parents, parents)] @ beta
    return mean, cov


def _blocks(observed):
    """The part of :func:`_condition`'s work that depends only on the mask.

    Yields one entry per hidden-set size |H| > 0, ascending: the group's
    ``rows``; the flat indices of each row's Lambda_HH block into the n x n
    precision, ``(rows, |H|, |H|)``; the flat indices of each row's hidden
    cells into the (M, n) table, ``(rows, |H|)``; and the group's identity
    right-hand side.  EM keeps the entries in a list, built once per fit and
    handed to every pass, since its mask never changes, with their block
    indices concatenated once (each entry's block a view of that array).  A
    caller that makes one pass streams them, so it holds one group's indices
    at a time.
    """
    n = observed.shape[1]
    num_hidden = n - observed.sum(axis=1)
    for h in np.unique(num_hidden[num_hidden > 0]).tolist():
        rows = np.nonzero(num_hidden == h)[0]
        hid = np.nonzero(~observed[rows])[1].reshape(rows.size, h)
        yield (rows, hid[:, :, None] * n + hid[:, None, :], rows[:, None] * n + hid,
               np.broadcast_to(np.eye(h), (rows.size, h, h)))


def _condition(model, values, observed, moments, blocks, scatter=None):
    """Exact Gaussian conditioning of each row's hidden cells on its observed ones.

    Works in information form, straight from the network.  With A = I - B
    (B the coefficient matrix) and D the noise variances, the precision is
    Lambda = A^T D^-1 A and log|Sigma| = sum(log D), since A is unit
    triangular up to a permutation; nothing n x n is factored.  Let d be
    x - mean with hidden cells set to 0 and u = d Lambda.  A row with hidden
    set H and observed set O has

        log p(x_O) = -(|O| log 2 pi + log|Sigma| + log|Lambda_HH|
                       + d^T Lambda d - u_H^T Lambda_HH^-1 u_H) / 2,
        E[x_H | x_O] = mean_H - Lambda_HH^-1 u_H,
        Cov(x_H | x_O) = Lambda_HH^-1.

    Rows are grouped by |H|, not by pattern, as ``blocks`` (the entries of
    :func:`_blocks` on ``observed``, read once) plans them: each group's
    Lambda_HH blocks and u_H are gathered by flat index, stacked, and take one
    batched Cholesky factorization and one batched solve.  The rows'
    conditional covariances are summed by one ``bincount`` over the groups in
    ascending |H|, which adds them in the order, and so with the bits, of one
    ``np.add.at`` per group.  Each group writes its Lambda_HH^-1 blocks
    straight into one weight array; ``scatter``, the entries' block indices
    concatenated in plan order, says where bincount adds each.  EM passes it
    built once per fit; without it a pass writes it beside the weights.

    Returns ``(log_rows, mean, cov)``: rows with nothing observed score 0;
    ``mean`` and ``cov`` are the expected mean and centred covariance of x
    (hidden cells filled with their conditional means, plus each row's
    conditional covariance), from :func:`_mean_cov`, or None when
    ``moments`` is false.
    """
    n = model.num_vars
    a = np.eye(n)
    edges = [node * n + p for node, parents in enumerate(model.dag.parents) for p in parents]
    a.reshape(-1)[edges] = np.negative([c for cs in model.coefficients for c in cs])
    mean = np.linalg.solve(a, model.intercepts)
    variances = np.asarray(model.variances)
    scaled = a / np.sqrt(variances)[:, None]
    precision = scaled.T @ scaled
    d = np.where(observed, values - mean, 0.0)
    u = d @ precision
    num_observed = observed.sum(axis=1)
    log_rows = -0.5 * (num_observed * _LOG_2PI + np.log(variances).sum() + (u * d).sum(axis=1))
    if moments:
        completed = np.where(observed, values, mean)
        weights = np.empty(int(np.square(n - num_observed).sum()))
        fill = scatter is None
        if fill:
            scatter = np.empty(weights.size, dtype=np.intp)
    start = 0
    for rows, block, cells, eye in blocks:
        factor = np.linalg.cholesky(precision.reshape(-1)[block])
        rhs = u.reshape(-1)[cells][:, :, None]
        if moments:
            rhs = np.concatenate([rhs, eye], axis=2)
        sol = np.linalg.solve(factor, rhs)  # L^-1 u_H, then L^-1 if moments
        logdet_hh = 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)
        log_rows[rows] -= 0.5 * (logdet_hh - (sol[:, :, 0] ** 2).sum(axis=1))
        if moments:
            inverse = sol[:, :, 1:].transpose(0, 2, 1) @ sol  # Lambda_HH^-1 [u_H, I]
            completed.reshape(-1)[cells] -= inverse[:, :, 0]
            end = start + block.size
            weights[start:end].reshape(block.shape)[...] = inverse[:, :, 1:]
            if fill:
                scatter[start:end] = block.reshape(-1)
            start = end
    log_rows[num_observed == 0] = 0.0
    if not moments:
        return log_rows, None, None
    hidden_cov = 0.0
    if weights.size:
        hidden_cov = np.bincount(scatter, weights=weights, minlength=n * n).reshape(n, n)
    return log_rows, *_mean_cov(completed, hidden_cov)


def log_marginal_lg_rows(model, data):
    """Exact observed-coordinate log density per row.

    Hidden coordinates are integrated out by dropping them from the joint
    normal.  Rows with nothing observed contribute 0 (the integral of a
    density over everything).
    """
    _check_columns(data.num_cols, model.num_vars, "model")
    return _condition(model, data.values, data.observed, False, _blocks(data.observed))[0]


def log_marginal_lg(model, instance):
    """Log density of one row's observed coordinates (NaN marks hidden).

    Equals the exact integral of the joint density over the hidden ones.
    """
    x = np.asarray(instance, dtype=float).reshape(1, -1)
    if x.size != model.num_vars:
        raise InvalidInputError(f"expected {model.num_vars} coordinates, got {x.size}")
    if np.isinf(x).any():
        raise InvalidInputError("instance has an infinite coordinate")
    observed = ~np.isnan(x)
    if not observed.any():
        raise InvalidInputError("instance has no observed coordinates")
    return float(_condition(model, x, observed, False, _blocks(observed))[0][0])


def expected_moments(model, data):
    """E-step: expected mean and centred covariance of x given observed cells.

    Hidden blocks are filled with their conditional means, and the
    covariance additionally receives each row's conditional covariance.
    Returns ``(mean, cov, num_rows)``.
    """
    _, mean, cov = _condition(model, data.values, data.observed, True, _blocks(data.observed))
    return mean, cov, data.num_rows


def family_ll_from_moments(mean, cov, child, parent_sets, num_rows):
    """(F,) maximized (expected) log-likelihoods of ``child``'s families with
    each of F parent sets of one size, given the mean and centred covariance.

    For complete-data moments each is the exact maximized conditional
    log-likelihood ``-M/2 (log(2 pi sigma^2) + 1)``, with sigma^2 the Schur
    complement of the parents in ``cov``; for expected moments it is the EM
    surrogate used by structure search under missingness.
    """
    variance = _family_from_moments(mean, cov, [(child, *ps) for ps in parent_sets])[2]
    return -0.5 * num_rows * (_LOG_2PI + np.log(variance) + 1.0)


def em_fit_lg(data, dag, history=None):
    """Fit under missing data by expectation-maximization.

    E-step: exact conditional first and second moments of each row's hidden
    coordinates given its observed ones (joint-normal conditioning, batched
    by the number of hidden cells), as an expected mean and centred
    covariance.  M-step: per-family least squares on those moments.  The
    start is the independent Gaussian of the observed cells' means and
    variances.  Stops when the observed-data log-likelihood improves
    by less than ``_EM_TOL``, and raises ``ConvergenceError`` if it still
    improves after ``_EM_MAX_ITERS`` iterations; the likelihood
    sequence is non-decreasing up to numerical slack.  One conditioning pass
    per model yields both its log-likelihood and the next E-step, so k
    iterations take k + 1 passes.  The mask never changes within a fit, so
    its row groups and gather indices (:func:`_blocks`) are planned once,
    before the first pass, and every pass does only the model's arithmetic.
    A column with no observed cell raises ``EmptyInputError``.

    Parameters
    ----------
    history : list, optional
        If given, the observed-data log-likelihood after each M-step is
        appended to it; the last entry equals
        ``log_marginal_lg_rows(model, data).sum()`` of the returned model.
    """
    _check_columns(data.num_cols, dag.num_vars, "graph")
    if data.fully_observed:
        model = fit_complete_lg(data, dag)
        if history is not None:
            history.append(float(log_marginal_lg_rows(model, data).sum()))
        return model

    empty = np.flatnonzero(~data.observed.any(axis=0))
    if empty.size:
        raise EmptyInputError(f"column {data.column_names[empty[0]]!r} has no observed cell")
    # Independent-Gaussian start: the observed cells' means and variances, no correlations.
    cells = [data.values[data.observed[:, j], j] for j in range(data.num_cols)]
    start = np.array([col.mean() for col in cells]), np.diag([col.var() for col in cells])
    model = _fit_from_moments(*start, dag, data.column_names)

    blocks = list(_blocks(data.observed))
    scatter = np.concatenate([block.reshape(-1) for _, block, _, _ in blocks])
    # Each entry's block becomes a view of scatter, so the plan holds its indices once.
    parts = np.split(scatter, np.cumsum([block.size for _, block, _, _ in blocks])[:-1])
    blocks = [(rows, part.reshape(block.shape), cells, eye)
              for (rows, block, cells, eye), part in zip(blocks, parts)]
    _, mean, cov = _condition(model, data.values, data.observed, True, blocks, scatter)
    last_ll = -np.inf
    for _ in range(_EM_MAX_ITERS):
        model = _fit_from_moments(mean, cov, dag, data.column_names)
        log_rows, mean, cov = _condition(model, data.values, data.observed, True, blocks, scatter)
        ll = float(log_rows.sum())
        if history is not None:
            history.append(ll)
        gain, last_ll = ll - last_ll, ll
        if gain < _EM_TOL:
            return model
    raise ConvergenceError(
        f"EM still gains {gain!r} nats per iteration after {_EM_MAX_ITERS} iterations"
    )
