"""Linear-Gaussian baseline: fitting, marginalization, and EM."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from copulabn import gaussian_bn
from copulabn.dag import Dag
from copulabn.data import MaskedDataset, apply_missing_mask
from copulabn.benchmark import fit_model
from copulabn.errors import (
    ConvergenceError,
    EmptyInputError,
    InvalidInputError,
    SingularDesignError,
    ValidationError,
)
from copulabn.gaussian_bn import (
    LinearGaussianBn,
    em_fit_lg,
    expected_moments,
    family_ll_from_moments,
    fit_complete_lg,
    joint_gaussian,
    log_marginal_lg,
    log_marginal_lg_rows,
)
from copulabn.model_io import serialize
from copulabn.structure import SearchConfig

from conftest import condition_by_pattern, family_from_moments


def _sample_lg(model, count, rng):
    """Ancestral sampling straight from the conditional definitions."""
    x = np.zeros((count, model.num_vars))
    for node in model.dag.topological_order:
        parents = list(model.dag.parents[node])
        mean = model.intercepts[node]
        if parents:
            mean = mean + x[:, parents] @ np.asarray(model.coefficients[node])
        x[:, node] = mean + np.sqrt(model.variances[node]) * rng.standard_normal(count)
    return x


def _collider_model():
    # x0, x1 independent roots; x2 = 1 + 0.8 x0 - 0.5 x1 + noise
    dag = Dag.from_edges(3, [(0, 2), (1, 2)])
    return LinearGaussianBn(
        dag=dag,
        intercepts=(0.5, -1.0, 1.0),
        coefficients=((), (), (0.8, -0.5)),
        variances=(1.0, 2.0, 0.49),
        column_names=("a", "b", "c"),
    )


# ------------------------------------------------------------ fitting


def test_fit_matches_least_squares_per_family():
    rng = np.random.default_rng(0)
    truth = _collider_model()
    data = MaskedDataset.from_values(_sample_lg(truth, 300, rng), truth.column_names)
    model = fit_complete_lg(data, truth.dag)

    design = np.column_stack([np.ones(300), data.values[:, [0, 1]]])
    coef, _, _, _ = np.linalg.lstsq(design, data.values[:, 2], rcond=None)
    np.testing.assert_allclose(model.intercepts[2], coef[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.coefficients[2], coef[1:], rtol=0, atol=1e-9)
    residuals = data.values[:, 2] - design @ coef
    np.testing.assert_allclose(
        model.variances[2], np.mean(residuals**2), rtol=1e-9, atol=0
    )
    # root families are plain mean / ML variance
    np.testing.assert_allclose(model.intercepts[0], data.values[:, 0].mean(), atol=1e-12)
    np.testing.assert_allclose(model.variances[0], data.values[:, 0].var(), rtol=1e-12)
    assert model.coefficients[0] == ()


def test_fit_recovers_generating_parameters():
    rng = np.random.default_rng(1)
    truth = _collider_model()
    data = MaskedDataset.from_values(_sample_lg(truth, 20000, rng), truth.column_names)
    model = fit_complete_lg(data, truth.dag)
    np.testing.assert_allclose(model.intercepts, truth.intercepts, atol=0.05)
    np.testing.assert_allclose(model.coefficients[2], truth.coefficients[2], atol=0.03)
    np.testing.assert_allclose(model.variances, truth.variances, rtol=0.06)


def test_fit_rejects_bad_input():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(50, 2))
    data = MaskedDataset.from_values(values)
    with pytest.raises(InvalidInputError):
        fit_complete_lg(data, Dag.chain(3))  # column count mismatch
    masked = values.copy()
    masked[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        fit_complete_lg(MaskedDataset.from_values(masked), Dag.chain(2))
    with pytest.raises(InvalidInputError):
        fit_complete_lg(
            MaskedDataset.from_values(values[:3]), Dag.chain(2)
        )  # too few rows


def test_fit_raises_on_collinear_parents():
    rng = np.random.default_rng(3)
    x = rng.normal(size=100)
    values = np.column_stack([x, x, rng.normal(size=100)])
    data = MaskedDataset.from_values(values)
    dag = Dag.from_edges(3, [(0, 2), (1, 2)])
    with pytest.raises(SingularDesignError):
        fit_complete_lg(data, dag)


@pytest.mark.parametrize("seed", range(5))
def test_fit_does_not_depend_on_the_data_scale(seed):
    # Rank is tested on the parents' correlations, so a full-rank table
    # still fits at 1e6 (an outlier makes its raw moments span 1e18) and
    # its coefficients match the unscaled fit.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((10, 3))
    values[rng.integers(10), rng.integers(3)] *= 1e3
    dag = Dag.from_edges(3, [(0, 2), (1, 2)])
    base = fit_complete_lg(MaskedDataset.from_values(values), dag)
    scaled = fit_complete_lg(MaskedDataset.from_values(values * 1e6), dag)
    np.testing.assert_allclose(scaled.coefficients[2], base.coefficients[2], rtol=1e-12)
    # Exactly collinear parents and a constant parent raise at every scale.
    collinear, constant = values.copy(), values.copy()
    collinear[:, 1] = 3.0 * values[:, 0] - 2.0
    constant[:, 0] = 0.1
    for table in (collinear, constant):
        for scale in (1e-6, 1.0, 1e6):
            with pytest.raises(SingularDesignError):
                fit_complete_lg(MaskedDataset.from_values(table * scale), dag)


@pytest.mark.parametrize("num_rows", [5_000, 100_000, 300_000])
@pytest.mark.parametrize("constant", [0.1, -2.3, 1e-7, 3.0])
def test_a_constant_parent_raises_in_tall_tables(num_rows, constant):
    # Moments taken in one pass (E xx^T - E x E x^T) leave a constant column a
    # variance of rounding that grows with the row count; centred in two passes
    # it stays below the rank test's tolerance, complete or partly hidden.
    rng = np.random.default_rng(20)
    values = np.column_stack([np.full(num_rows, constant), rng.standard_normal((num_rows, 2))])
    data = MaskedDataset.from_values(values)
    dag = Dag.from_edges(3, [(0, 2), (1, 2)])
    with pytest.raises(SingularDesignError):
        fit_complete_lg(data, dag)
    with pytest.raises(SingularDesignError):
        em_fit_lg(apply_missing_mask(data, 0.1, seed=21), dag)


@pytest.mark.parametrize("num_rows", [5_000, 100_000, 300_000])
def test_a_duplicate_parent_raises_in_tall_tables(num_rows):
    rng = np.random.default_rng(22)
    values = 3.0 + rng.standard_normal((num_rows, 3))
    values[:, 0] = values[:, 1]
    with pytest.raises(SingularDesignError):
        fit_complete_lg(MaskedDataset.from_values(values), Dag.from_edges(3, [(0, 2), (1, 2)]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    num_cols=st.integers(4, 6),
    num_rows=st.integers(6, 300),
    size=st.integers(0, 3),
    num_sets=st.integers(1, 20),
    mixed=st.booleans(),
    degenerate=st.sampled_from([None, "duplicate", "constant"]),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_cols=4, num_rows=50, size=1, num_sets=12, mixed=False, degenerate="constant",
         scale=1.0, seed=0)
@example(num_cols=5, num_rows=50, size=3, num_sets=20, mixed=False, degenerate="duplicate",
         scale=1e6, seed=1)
@example(num_cols=6, num_rows=8, size=3, num_sets=20, mixed=False, degenerate=None,
         scale=1e-6, seed=2)
# Children mixed as the M-step batches them, with collinear families among them.
@example(num_cols=6, num_rows=40, size=2, num_sets=20, mixed=True, degenerate="duplicate",
         scale=1.0, seed=3)
@example(num_cols=5, num_rows=300, size=1, num_sets=15, mixed=True, degenerate="constant",
         scale=1e-6, seed=4)
@example(num_cols=6, num_rows=30, size=3, num_sets=20, mixed=True, degenerate=None,
         scale=1e6, seed=5)
def test_batched_family_fit_equals_the_one_family_oracle(
    num_cols, num_rows, size, num_sets, mixed, degenerate, scale, seed
):
    # F families of one size fitted in one batch, of one child as the search
    # scores them or of mixed children as the M-step fits them, give each
    # family the oracle's bits, and the batch raises exactly when the oracle
    # rejects a member, naming the first such (child, parents).
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal((num_rows, num_cols)) @ rng.standard_normal((num_cols,) * 2))
    if degenerate == "duplicate":
        x[:, 2] = x[:, 1]
    elif degenerate == "constant":
        x[:, 2] = 3.0 * scale
    mean, cov = gaussian_bn._mean_cov(x)
    children = rng.integers(num_cols, size=num_sets if mixed else 1)
    families = []
    for i in range(num_sets):
        child = int(children[i % children.size])
        others = [j for j in range(num_cols) if j != child]
        families.append((child, *(int(p) for p in rng.permutation(others)[:size])))
    want, rejected = [], []
    for child, *parents in families:
        try:
            want.append(family_from_moments(mean, cov, child, tuple(parents)))
        except SingularDesignError as e:
            rejected.append(str(e))
    if rejected:
        with pytest.raises(SingularDesignError) as info:
            gaussian_bn._family_from_moments(mean, cov, families)
        assert str(info.value) == rejected[0]
        return
    intercepts, betas, variances = gaussian_bn._family_from_moments(mean, cov, families)
    assert betas.shape == (num_sets, size)
    got = np.column_stack([intercepts, betas, variances])
    assert got.tobytes() == np.array([(b, *beta, v) for b, beta, v in want]).tobytes()


def test_model_validation():
    dag = Dag.chain(2)
    with pytest.raises(ValidationError):
        LinearGaussianBn(dag, (0.0,), ((), (1.0,)), (1.0, 1.0), ("a", "b"))
    with pytest.raises(ValidationError):
        LinearGaussianBn(dag, (0.0, 0.0), ((), ()), (1.0, 1.0), ("a", "b"))
    with pytest.raises(ValidationError):
        LinearGaussianBn(dag, (0.0, 0.0), ((), (1.0,)), (1.0, -1.0), ("a", "b"))
    for intercepts, coefficients in (((np.nan, 0.0), ((), (1.0,))), ((0.0, 0.0), ((), (np.inf,)))):
        with pytest.raises(ValidationError):
            LinearGaussianBn(dag, intercepts, coefficients, (1.0, 1.0), ("a", "b"))


def _per_node_validation(dag, intercepts, coefficients, variances):
    """The node-by-node checks that ``LinearGaussianBn`` made before it checked
    every node in one array pass: the first failing node's first failed
    check's message, or None."""
    for i, (b, cs, v) in enumerate(zip(intercepts, coefficients, variances)):
        if len(cs) != len(dag.parents[i]):
            return f"node {i}: {len(cs)} coefficients for {len(dag.parents[i])} parents"
        if not np.isfinite([b, *cs]).all():
            return f"node {i}: intercept and coefficients must be finite"
        if not np.isfinite(v) or v <= 0.0:
            return f"node {i}: variance must be positive, got {v}"
    return None


_DEFECTS = ("none", "count", "intercept", "coefficient", "variance", "nan variance", "inf variance")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(defects=st.lists(st.sampled_from(_DEFECTS), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_model_validation_names_the_first_failing_node_and_check(defects, seed):
    rng = np.random.default_rng(seed)
    n = len(defects)
    net = _random_network(rng, n)
    intercepts, variances = list(net.intercepts), list(net.variances)
    coefficients = [list(cs) for cs in net.coefficients]
    bad = {"intercept": np.nan, "variance": -rng.random(), "nan variance": np.nan, "inf variance": np.inf}
    for i, defect in enumerate(defects):
        if defect == "count":
            coefficients[i].append(1.0)
        elif defect == "intercept":
            intercepts[i] = bad[defect]
        elif defect == "coefficient":
            # At a root, the infinite coefficient is also one too many.
            coefficients[i] = [-np.inf, *coefficients[i][1:]]
        elif defect != "none":
            variances[i] = bad[defect]
    want = _per_node_validation(net.dag, intercepts, coefficients, variances)
    args = (net.dag, tuple(intercepts), tuple(map(tuple, coefficients)), tuple(variances), net.column_names)
    if want is None:
        assert LinearGaussianBn(*args) == LinearGaussianBn(*args)
        return
    with pytest.raises(ValidationError) as info:
        LinearGaussianBn(*args)
    assert str(info.value) == want


# ---------------------------------------------------- joint compilation


def test_joint_gaussian_hand_computed_chain():
    # x0 ~ N(1, 1); x1 = 0.5 x0 + noise(var 1)
    model = LinearGaussianBn(
        dag=Dag.chain(2),
        intercepts=(1.0, 0.0),
        coefficients=((), (0.5,)),
        variances=(1.0, 1.0),
        column_names=("x0", "x1"),
    )
    mean, cov = joint_gaussian(model)
    np.testing.assert_allclose(mean, [1.0, 0.5], rtol=0, atol=1e-15)
    np.testing.assert_allclose(cov, [[1.0, 0.5], [0.5, 1.25]], rtol=0, atol=1e-15)


def test_joint_gaussian_matches_sample_moments():
    rng = np.random.default_rng(4)
    truth = _collider_model()
    x = _sample_lg(truth, 200000, rng)
    mean, cov = joint_gaussian(truth)
    np.testing.assert_allclose(mean, x.mean(axis=0), atol=0.02)
    np.testing.assert_allclose(cov, np.cov(x.T), atol=0.03)


# -------------------------------------------------- marginal densities


def test_log_marginal_matches_dense_normal_on_complete_rows():
    rng = np.random.default_rng(5)
    truth = _collider_model()
    x = _sample_lg(truth, 20, rng)
    mean, cov = joint_gaussian(truth)
    expected = multivariate_normal(mean=mean, cov=cov).logpdf(x)
    data = MaskedDataset.from_values(x, truth.column_names)
    got = log_marginal_lg_rows(truth, data)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
    for i in range(5):
        np.testing.assert_allclose(
            log_marginal_lg(truth, x[i]), expected[i], rtol=0, atol=1e-9
        )


def test_log_marginal_drops_hidden_coordinates():
    rng = np.random.default_rng(6)
    truth = _collider_model()
    x = _sample_lg(truth, 30, rng)
    x[:, 1] = np.nan  # hide the same column everywhere
    mean, cov = joint_gaussian(truth)
    keep = [0, 2]
    expected = multivariate_normal(
        mean=mean[keep], cov=cov[np.ix_(keep, keep)]
    ).logpdf(x[:, keep])
    data = MaskedDataset.from_values(x, truth.column_names)
    np.testing.assert_allclose(
        log_marginal_lg_rows(truth, data), expected, rtol=0, atol=1e-10
    )


def test_log_marginal_matches_numerical_integration():
    # hide one coordinate of a 2-variable model and integrate it out by
    # adaptive quadrature over the joint density
    model = LinearGaussianBn(
        dag=Dag.chain(2),
        intercepts=(0.3, -0.2),
        coefficients=((), (0.7,)),
        variances=(1.3, 0.6),
        column_names=("x0", "x1"),
    )
    mean, cov = joint_gaussian(model)
    joint = multivariate_normal(mean=mean, cov=cov)
    for x0 in (-1.0, 0.4, 2.5):
        integral, _ = quad(
            lambda x1: joint.pdf([x0, x1]), -np.inf, np.inf, epsabs=1e-12
        )
        got = log_marginal_lg(model, [x0, np.nan])
        np.testing.assert_allclose(got, np.log(integral), rtol=0, atol=1e-6)
    # and the other way round
    for x1 in (-0.8, 1.7):
        integral, _ = quad(
            lambda x0: joint.pdf([x0, x1]), -np.inf, np.inf, epsabs=1e-12
        )
        got = log_marginal_lg(model, [np.nan, x1])
        np.testing.assert_allclose(got, np.log(integral), rtol=0, atol=1e-6)


def test_log_marginal_with_three_variables_against_quadrature():
    truth = _collider_model()
    x = np.array([0.9, np.nan, 1.4])
    mean, cov = joint_gaussian(truth)
    joint = multivariate_normal(mean=mean, cov=cov)
    integral, _ = quad(
        lambda x1: joint.pdf([x[0], x1, x[2]]), -np.inf, np.inf, epsabs=1e-12
    )
    np.testing.assert_allclose(
        log_marginal_lg(truth, x), np.log(integral), rtol=0, atol=1e-6
    )


def test_log_marginal_empty_rows():
    truth = _collider_model()
    values = np.array([[0.1, 0.2, 0.3], [np.nan, np.nan, np.nan]])
    data = MaskedDataset(values, ~np.isnan(values), truth.column_names)
    rows = log_marginal_lg_rows(truth, data)
    assert rows[1] == 0.0
    assert np.isfinite(rows[0])
    with pytest.raises(InvalidInputError):
        log_marginal_lg(truth, [np.nan, np.nan, np.nan])
    with pytest.raises(InvalidInputError):
        log_marginal_lg(truth, [0.1, 0.2])


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_log_marginal_rejects_infinite_coordinates(bad):
    truth = _collider_model()
    for row in ([bad, 0.0, 0.0], [0.0, np.nan, bad]):
        with pytest.raises(InvalidInputError):
            log_marginal_lg(truth, row)
    # NaN still marks a hidden cell.
    assert np.isfinite(log_marginal_lg(truth, [0.1, np.nan, 0.3]))


# ------------------------------------------------------------- moments


def _from_sums(s1, s2, num_rows):
    """An oracle's summed moments of x and x x^T as (mean, centred covariance)."""
    mean = s1 / num_rows
    return mean, s2 / num_rows - np.outer(mean, mean)


def test_expected_moments_equal_empirical_on_complete_data():
    rng = np.random.default_rng(7)
    truth = _collider_model()
    x = _sample_lg(truth, 64, rng)
    data = MaskedDataset.from_values(x, truth.column_names)
    mean, cov, m = expected_moments(truth, data)
    assert m == 64
    want_mean, want_cov = _from_sums(x.sum(axis=0), x.T @ x, m)
    np.testing.assert_allclose(mean, want_mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-10)


def test_expected_moments_use_exact_conditioning():
    # one row, one hidden coordinate: E[x_h | x_o] and its conditional
    # variance have textbook closed forms from the joint normal
    truth = _collider_model()
    mean, cov = joint_gaussian(truth)
    x = np.array([[1.2, np.nan, -0.3]])
    data = MaskedDataset(x, ~np.isnan(x), truth.column_names)
    got_mean, got_cov, m = expected_moments(truth, data)

    obs, hid = [0, 2], 1
    k = cov[hid, obs] @ np.linalg.inv(cov[np.ix_(obs, obs)])
    cond_mean = mean[hid] + k @ (x[0, obs] - mean[obs])
    cond_var = cov[hid, hid] - k @ cov[obs, hid]
    s1 = np.array([x[0, 0], cond_mean, x[0, 2]])
    s2 = np.outer(s1, s1)
    s2[1, 1] += cond_var
    want_mean, want_cov = _from_sums(s1, s2, m)
    np.testing.assert_allclose(got_mean[1], want_mean[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_cov[1, 1], want_cov[1, 1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_cov[0, 1], want_cov[0, 1], rtol=0, atol=1e-12)


def _random_network(rng, n):
    """Linear-Gaussian network on a random DAG over a shuffled node order."""
    order = rng.permutation(n)
    parents = [()] * n
    for pos, node in enumerate(order):
        earlier = order[:pos]
        chosen = earlier[rng.random(earlier.size) < 0.5]
        parents[node] = tuple(int(p) for p in sorted(chosen))
    return LinearGaussianBn(
        dag=Dag(n, tuple(parents)),
        intercepts=tuple(rng.uniform(-2.0, 2.0, n)),
        coefficients=tuple(tuple(rng.uniform(-1.5, 1.5, len(ps))) for ps in parents),
        variances=tuple(rng.uniform(0.2, 3.0, n)),
        column_names=tuple(f"x{i}" for i in range(n)),
    )


def _mixed_mask(rng, num_rows, n):
    """Masks drawn from a small pool, so patterns repeat; the pool holds a
    fully observed, an all-hidden and a partly hidden pattern."""
    partial = rng.random(n) < 0.5
    partial[rng.integers(n)] = True
    partial[rng.integers(n)] = False
    if partial.all():
        partial[0] = False
    pool = [np.ones(n, bool), np.zeros(n, bool), partial]
    pool += [rng.random(n) < 0.6 for _ in range(3)]
    picks = np.concatenate([np.arange(3), rng.integers(len(pool), size=num_rows - 3)])
    return np.array([pool[i] for i in picks])


def _dense_moments(mean, cov, x, observed):
    """Row-by-row E-step with an explicit inverse of each Sigma_OO."""
    n = mean.size
    s1 = np.zeros(n)
    s2 = np.zeros((n, n))
    for row, pattern in zip(x, observed):
        obs, hid = np.nonzero(pattern)[0], np.nonzero(~pattern)[0]
        completed = row.copy()
        cond_cov = np.zeros((n, n))
        if obs.size == 0:
            completed = mean.copy()
            cond_cov = cov.copy()
        elif hid.size:
            k = cov[np.ix_(hid, obs)] @ np.linalg.inv(cov[np.ix_(obs, obs)])
            completed[hid] = mean[hid] + k @ (row[obs] - mean[obs])
            cond_cov[np.ix_(hid, hid)] = cov[np.ix_(hid, hid)] - k @ cov[np.ix_(obs, hid)]
        s1 += completed
        s2 += np.outer(completed, completed) + cond_cov
    return s1, s2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    num_rows=st.integers(3, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_conditioning_matches_dense_oracles(n, num_rows, seed):
    rng = np.random.default_rng(seed)
    model = _random_network(rng, n)
    x = _sample_lg(model, num_rows, rng)
    observed = _mixed_mask(rng, num_rows, n)
    data = MaskedDataset(x, observed, model.column_names)
    mean, cov = joint_gaussian(model)

    rows = log_marginal_lg_rows(model, data)
    for i in range(num_rows):
        obs = np.nonzero(observed[i])[0]
        if obs.size == 0:
            assert rows[i] == 0.0
            continue
        expected = multivariate_normal(mean[obs], cov[np.ix_(obs, obs)]).logpdf(x[i, obs])
        np.testing.assert_allclose(rows[i], expected, rtol=1e-10, atol=1e-10)

    got_mean, got_cov, m = expected_moments(model, data)
    d1, d2 = _dense_moments(mean, cov, x, observed)
    assert m == num_rows
    scale = 1.0 + np.abs(d2).max()
    want_mean, want_cov = _from_sums(d1, d2, m)
    np.testing.assert_allclose(got_mean, want_mean, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(got_cov, want_cov, rtol=0, atol=1e-10 * scale)


def _varied_mask(rng, num_rows, n):
    """Rows that are fully observed, all hidden, observed in one cell, or
    hidden at random with a per-row rate, so several |H| groups meet in one
    call."""
    observed = rng.random((num_rows, n)) >= rng.random((num_rows, 1))
    observed[0] = True
    observed[1] = False
    observed[2] = np.arange(n) == rng.integers(n)
    return observed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    num_rows=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_matches_per_pattern_oracle(n, num_rows, seed):
    rng = np.random.default_rng(seed)
    model = _random_network(rng, n)
    x = _sample_lg(model, num_rows, rng)
    observed = _varied_mask(rng, num_rows, n)
    data = MaskedDataset(x, observed, model.column_names)
    mean, cov = joint_gaussian(model)
    want_rows, want_s1, want_s2 = condition_by_pattern(mean, cov, data.values, observed, True)

    rows = log_marginal_lg_rows(model, data)
    assert (rows[~observed.any(axis=1)] == 0.0).all()
    np.testing.assert_allclose(rows, want_rows, rtol=1e-10, atol=1e-10)
    got_mean, got_cov, m = expected_moments(model, data)
    want_mean, want_cov = _from_sums(want_s1, want_s2, m)
    np.testing.assert_allclose(got_mean, want_mean, rtol=1e-10, atol=1e-10 * np.abs(want_mean).max())
    np.testing.assert_allclose(got_cov, want_cov, rtol=1e-10, atol=1e-10 * np.abs(want_cov).max())


def _condition_per_group(model, values, observed, moments):
    """Reference E-step with nothing planned: per |H| group, 2-d fancy-index
    gathers, ``take_along_axis`` and one ``np.add.at``."""
    n = model.num_vars
    a = np.eye(n)
    for node, parents in enumerate(model.dag.parents):
        a[node, list(parents)] = np.negative(model.coefficients[node])
    mean = np.linalg.solve(a, model.intercepts)
    variances = np.asarray(model.variances)
    scaled = a / np.sqrt(variances)[:, None]
    precision = scaled.T @ scaled
    d = np.where(observed, values - mean, 0.0)
    u = d @ precision
    num_hidden = n - observed.sum(axis=1)
    log_rows = -0.5 * ((n - num_hidden) * gaussian_bn._LOG_2PI + np.log(variances).sum()
                       + (u * d).sum(axis=1))
    completed = np.where(observed, values, mean) if moments else None
    hidden_cov = np.zeros((n, n)) if moments else None
    for h in np.unique(num_hidden[num_hidden > 0]):
        rows = np.nonzero(num_hidden == h)[0]
        hid = np.nonzero(~observed[rows])[1].reshape(rows.size, h)
        factor = np.linalg.cholesky(precision[hid[:, :, None], hid[:, None, :]])
        rhs = np.take_along_axis(u[rows], hid, axis=1)[:, :, None]
        if moments:
            rhs = np.concatenate([rhs, np.broadcast_to(np.eye(h), (rows.size, h, h))], axis=2)
        sol = np.linalg.solve(factor, rhs)
        logdet_hh = 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)
        log_rows[rows] -= 0.5 * (logdet_hh - (sol[:, :, 0] ** 2).sum(axis=1))
        if moments:
            inverse = sol[:, :, 1:].transpose(0, 2, 1) @ sol
            completed[rows[:, None], hid] -= inverse[:, :, 0]
            np.add.at(hidden_cov, (hid[:, :, None], hid[:, None, :]), inverse[:, :, 1:])
    log_rows[num_hidden == n] = 0.0
    if not moments:
        return log_rows, None, None
    return log_rows, *gaussian_bn._mean_cov(completed, hidden_cov)


def _planned_mask(rng, num_rows, n, complete):
    """Row 0 fully observed and row 1 fully hidden, the only such row, so its
    |H| group holds one row; the others hidden at random, each keeping one
    observed cell.  Every cell observed when ``complete``."""
    observed = rng.random((num_rows, n)) >= rng.random((num_rows, 1))
    observed[np.arange(2, num_rows), rng.integers(n, size=num_rows - 2)] = True
    observed[0] = True
    observed[1] = False
    return observed | complete


def _passes_as_bytes(model, values, observed, plan):
    """The bytes of a pass without and one with moments, each reading ``plan()``."""
    return [None if out is None else out.tobytes()
            for moments in (False, True)
            for out in gaussian_bn._condition(model, values, observed, moments, plan())]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    num_rows=st.integers(3, 40),
    complete=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_planned_blocks_keep_every_bit_of_the_per_group_e_step(n, num_rows, complete, seed):
    rng = np.random.default_rng(seed)
    first, second = _random_network(rng, n), _random_network(rng, n)
    observed = _planned_mask(rng, num_rows, n, complete)
    values = np.where(observed, _sample_lg(first, num_rows, rng), np.nan)
    blocks = list(gaussian_bn._blocks(observed))
    sizes = [rows.size for rows, *_ in blocks]
    assert sizes == [] if complete else sizes[-1] == 1
    before = [[part.tobytes() for part in entry] for entry in blocks]
    # One plan serves two models in turn, as EM's passes share one; each
    # pass gives the per-group code's bytes, and so does a streamed plan.
    for model in (first, second):
        want = [None if out is None else out.tobytes()
                for moments in (False, True)
                for out in _condition_per_group(model, values, observed, moments)]
        assert _passes_as_bytes(model, values, observed, lambda: blocks) == want
        streamed = _passes_as_bytes(model, values, observed, lambda: gaussian_bn._blocks(observed))
        assert streamed == want
    assert [[part.tobytes() for part in entry] for entry in blocks] == before


def test_family_ll_matches_direct_gaussian_log_likelihood():
    rng = np.random.default_rng(8)
    truth = _collider_model()
    x = _sample_lg(truth, 150, rng)
    data = MaskedDataset.from_values(x, truth.column_names)
    model = fit_complete_lg(data, truth.dag)
    mean = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, bias=True)
    for node in range(3):
        parents = truth.dag.parents[node]
        got = family_ll_from_moments(mean, cov, node, [parents], x.shape[0])
        assert got.shape == (1,)
        loc = model.intercepts[node] + (
            x[:, list(parents)] @ np.asarray(model.coefficients[node])
            if parents
            else 0.0
        )
        direct = norm(loc=loc, scale=np.sqrt(model.variances[node])).logpdf(
            x[:, node]
        ).sum()
        np.testing.assert_allclose(got, direct, rtol=1e-9, atol=1e-9)


# ------------------------------------------------------------------ EM


def test_em_on_complete_data_equals_direct_fit():
    rng = np.random.default_rng(9)
    truth = _collider_model()
    data = MaskedDataset.from_values(_sample_lg(truth, 200, rng), truth.column_names)
    direct = fit_complete_lg(data, truth.dag)
    history = []
    via_em = em_fit_lg(data, truth.dag, history=history)
    assert via_em == direct
    assert len(history) == 1


def test_em_history_is_non_decreasing():
    truth = _collider_model()
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = _sample_lg(truth, 400, rng)
        data = apply_missing_mask(
            MaskedDataset.from_values(x, truth.column_names), 0.25, seed=seed
        )
        history = []
        em_fit_lg(data, truth.dag, history=history)
        assert len(history) >= 2
        diffs = np.diff(history)
        assert (diffs >= -1e-8).all(), f"seed {seed}: EM decreased by {diffs.min()}"


def test_em_history_is_non_decreasing_when_every_row_has_its_own_pattern():
    rng = np.random.default_rng(17)
    n = 20
    truth = LinearGaussianBn(
        dag=Dag.chain(n),
        intercepts=tuple(rng.uniform(-1.0, 1.0, n)),
        coefficients=((),) + tuple((c,) for c in rng.uniform(0.5, 0.9, n - 1)),
        variances=tuple(rng.uniform(0.3, 1.5, n)),
        column_names=tuple(f"x{i}" for i in range(n)),
    )
    data = apply_missing_mask(
        MaskedDataset.from_values(_sample_lg(truth, 80, rng), truth.column_names),
        0.3,
        seed=18,
    )
    assert len(np.unique(data.observed, axis=0)) >= 75
    for dag in (truth.dag, Dag.empty(n)):
        history = []
        em_fit_lg(data, dag, history=history)
        assert len(history) >= 2
        diffs = np.diff(history)
        assert (diffs >= -1e-8).all(), f"EM decreased by {diffs.min()}"


def _skewed_table_and_graph(n, num_rows, missing, log_scale, decimals, seed):
    """Skewed columns at any scale, with an outlier and, when rounded, ties,
    with a fraction ``missing`` of cells hidden; and a random graph on them."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((num_rows, n))
    values = np.where(rng.random(n) < 0.5, np.exp(z), z) * 10.0**log_scale
    values[rng.integers(num_rows), rng.integers(n)] *= 1e3
    if decimals is not None:
        values = np.round(values, decimals - log_scale)
    data = apply_missing_mask(MaskedDataset.from_values(values), missing, seed=seed)
    return data, _random_network(rng, n).dag


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    num_rows=st.integers(10, 60),
    missing=st.floats(0.0, 0.6),
    log_scale=st.integers(-6, 6),
    decimals=st.sampled_from([None, 0, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_finite_masked_tables_give_finite_em_scores(
    n, num_rows, missing, log_scale, decimals, seed
):
    data, dag = _skewed_table_and_graph(n, num_rows, missing, log_scale, decimals, seed)
    try:
        model = em_fit_lg(data, dag)
    except (SingularDesignError, ConvergenceError):
        return  # a loud, typed failure; a fit that returns must score finitely
    assert np.isfinite(log_marginal_lg_rows(model, data)).all()


def test_em_that_still_gains_at_its_cap_raises():
    # Column x1 keeps 2 observed cells, and x2's coefficient on it runs off
    # (past -100, with a vanishing variance): EM still gains about 0.05 nats
    # per iteration after _EM_MAX_ITERS, and must not return that model.
    data, dag = _skewed_table_and_graph(3, 10, 0.5, 0, None, 3)
    assert data.observed.sum(axis=0).tolist() == [6, 2, 6]
    history = []
    with pytest.raises(ConvergenceError, match=r"still gains 0\.05\d* nats .* after 200 iter"):
        em_fit_lg(data, dag, history=history)
    assert len(history) == gaussian_bn._EM_MAX_ITERS
    assert history[-1] - history[-2] > gaussian_bn._EM_TOL


@pytest.mark.parametrize("max_iters", [1, 3, 200])
def test_em_conditions_once_per_iteration(monkeypatch, max_iters):
    # The pass at model_t scores model_t and gives the moments of the next
    # M-step, so a history of length k takes k + 1 passes, not 2k.  EM needs
    # more than 3 iterations on this table, so caps of 1 and 3 raise, after
    # exactly that many iterations.
    rng = np.random.default_rng(15)
    truth = _collider_model()
    data = apply_missing_mask(
        MaskedDataset.from_values(_sample_lg(truth, 300, rng), truth.column_names),
        0.3,
        seed=16,
    )
    passes = []
    condition = gaussian_bn._condition

    def counted(*args):
        passes.append(args)
        return condition(*args)

    monkeypatch.setattr(gaussian_bn, "_condition", counted)
    monkeypatch.setattr(gaussian_bn, "_EM_MAX_ITERS", max_iters)
    history = []
    try:
        model = em_fit_lg(data, truth.dag, history=history)
    except ConvergenceError:
        model = None
    monkeypatch.undo()
    assert len(passes) == len(history) + 1
    if max_iters < 200:
        assert model is None and len(history) == max_iters
    else:
        assert 3 < len(history) < max_iters
        assert history[-1] == float(log_marginal_lg_rows(model, data).sum())


def test_em_starts_from_the_observed_cells_independent_gaussian(monkeypatch):
    # The model the first E-step conditions on has the observed cells' means
    # and (floored) variances and zero coefficients, bit for bit.
    rng = np.random.default_rng(19)
    truth = _collider_model()
    x = _sample_lg(truth, 300, rng)
    x[:, 1] = 0.25  # a constant root: its variance is floored
    data = apply_missing_mask(MaskedDataset.from_values(x, truth.column_names), 0.3, seed=20)
    conditioned = []
    condition = gaussian_bn._condition

    def recording(model, *args):
        conditioned.append(model)
        return condition(model, *args)

    monkeypatch.setattr(gaussian_bn, "_condition", recording)
    em_fit_lg(data, Dag.from_edges(3, [(0, 2)]))
    cells = [data.values[data.observed[:, j], j] for j in range(3)]
    start = LinearGaussianBn(
        dag=Dag.from_edges(3, [(0, 2)]),
        intercepts=tuple(float(col.mean()) for col in cells),
        coefficients=((), (), (0.0,)),
        variances=tuple(max(float(col.var()), gaussian_bn._VARIANCE_FLOOR) for col in cells),
        column_names=truth.column_names,
    )
    assert start.variances[1] == gaussian_bn._VARIANCE_FLOOR
    assert serialize(conditioned[0]) == serialize(start)


def test_em_recovers_parameters_under_missingness():
    rng = np.random.default_rng(10)
    truth = _collider_model()
    x = _sample_lg(truth, 2000, rng)
    data = apply_missing_mask(
        MaskedDataset.from_values(x, truth.column_names), 0.1, seed=11
    )
    model = em_fit_lg(data, truth.dag)
    np.testing.assert_allclose(model.coefficients[2], truth.coefficients[2], atol=0.07)
    np.testing.assert_allclose(model.intercepts, truth.intercepts, atol=0.12)


def test_em_improves_on_its_independent_start():
    rng = np.random.default_rng(12)
    truth = _collider_model()
    x = _sample_lg(truth, 500, rng)
    data = apply_missing_mask(
        MaskedDataset.from_values(x, truth.column_names), 0.2, seed=13
    )
    history = []
    model = em_fit_lg(data, truth.dag, history=history)
    # final model beats an edge-free fit of the same data
    independent = em_fit_lg(data, Dag.empty(3))
    assert (
        log_marginal_lg_rows(model, data).sum()
        > log_marginal_lg_rows(independent, data).sum()
    )


@pytest.mark.parametrize("max_iters", [1, 3, 200])
def test_em_plans_its_blocks_once_per_fit(monkeypatch, max_iters):
    rng = np.random.default_rng(15)
    truth = _collider_model()
    data = apply_missing_mask(
        MaskedDataset.from_values(_sample_lg(truth, 300, rng), truth.column_names), 0.3, seed=16
    )
    plans, passes = [], []
    blocks, condition = gaussian_bn._blocks, gaussian_bn._condition

    def counted_blocks(observed):
        plans.append(observed)
        return blocks(observed)

    def counted_condition(*args):
        passes.append(args[-1])
        return condition(*args)

    monkeypatch.setattr(gaussian_bn, "_blocks", counted_blocks)
    monkeypatch.setattr(gaussian_bn, "_condition", counted_condition)
    monkeypatch.setattr(gaussian_bn, "_EM_MAX_ITERS", max_iters)
    try:
        em_fit_lg(data, truth.dag)
    except ConvergenceError:
        pass
    assert len(plans) == 1 and len(passes) >= min(max_iters, 4) + 1
    assert all(plan is passes[0] for plan in passes)
    # The other callers plan once per call.
    expected_moments(truth, data)
    log_marginal_lg_rows(truth, data)
    log_marginal_lg(truth, data.values[0])
    assert len(plans) == 4


def test_a_column_with_no_observed_cell_is_empty_input():
    rng = np.random.default_rng(22)
    truth = _collider_model()
    values = _sample_lg(truth, 40, rng)
    values[:, 1] = np.nan
    values[::3, 0] = np.nan
    data = MaskedDataset.from_values(values, truth.column_names)
    with pytest.raises(EmptyInputError, match="column 'b' has no observed cell"):
        em_fit_lg(data, truth.dag)
    with pytest.raises(EmptyInputError, match="column 'b'"):
        fit_model(data, "lgbn", SearchConfig(max_parents=2))


def test_em_rejects_bad_arguments():
    rng = np.random.default_rng(14)
    values = rng.normal(size=(30, 2))
    values[0, 0] = np.nan
    data = MaskedDataset.from_values(values)
    with pytest.raises(InvalidInputError):
        em_fit_lg(data, Dag.chain(3))
