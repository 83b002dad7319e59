"""The joint model: exact density, likelihood bound, energy check, sampling."""

import gc
import re
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtri
from scipy.stats import kstest

from copulabn import cbn as cbn_module
from copulabn import structure as structure_module
from copulabn.benchmark import fit_model
from copulabn.cbn import (
    CbnModel,
    _score_table,
    energy_identity_check,
    fit_complete,
    fit_missing,
    forward_sample,
    log_density,
    log_density_rows,
    lower_bound,
    lower_bound_rows,
)
from copulabn.copula import (
    family_stats,
    ratio_log,
    ratio_log_from_z,
    rho_bounds,
)
from copulabn.dag import Dag
from copulabn.data import MaskedDataset, apply_missing_mask
from copulabn.errors import (
    CopulaBnError,
    InvalidInputError,
    InvalidRhoError,
    OutOfRangeError,
    ValidationError,
)
from copulabn.marginals import fit_kde
from copulabn.model_io import save_model
from copulabn.structure import SearchConfig, greedy_search
from conftest import (
    chain_scores,
    cycle_warps,
    equicorrelated_scores,
    normal_hermite_rule,
    tensor_rule,
    warp_columns,
)


def _chain_model(rho=0.5, num_rows=300, num_vars=3, seed=40, warp=False):
    rng = np.random.default_rng(seed)
    z = chain_scores(rho, num_vars, num_rows, rng)
    x = warp_columns(z, cycle_warps(num_vars)) if warp else z
    data = MaskedDataset.from_values(x)
    model = fit_complete(data, Dag.chain(num_vars))
    return model, data, rng


def _pinned_chain_model(data, rho):
    """Chain model with the marginals fitted from data but rho pinned."""
    fitted = fit_complete(data, Dag.chain(data.num_cols))
    pinned = tuple(rho if parents else None for parents in fitted.dag.parents)
    return CbnModel(fitted.dag, fitted.marginals, pinned, fitted.column_names)


# ------------------------------------------------------- joint density


def test_log_density_matches_marginals_plus_ratio_terms():
    model, data, _ = _chain_model(warp=True)
    rows = data.values[:7]
    got = log_density_rows(model, rows)
    for r, x in enumerate(rows):
        u = np.array([m.cdf(v) for m, v in zip(model.marginals, x)])
        expected = sum(float(np.log(m.pdf(v))) for m, v in zip(model.marginals, x))
        for child, parents in model.families():
            expected += float(ratio_log(model.rho[child], u[child], u[list(parents)]))
        np.testing.assert_allclose(got[r], expected, rtol=0, atol=1e-10)


def test_log_density_scalar_entry_point():
    model, data, _ = _chain_model()
    x = data.values[0]
    assert log_density(model, x) == log_density_rows(model, x[None, :])[0]
    with pytest.raises(InvalidInputError):
        log_density(model, x[:2])


def test_log_density_rows_refuses_an_array_that_is_not_1d_or_2d():
    model, _, _ = _chain_model()
    with pytest.raises(InvalidInputError, match=re.escape("got shape (2, 3, 4)")):
        log_density_rows(model, np.zeros((2, 3, 4)))


def test_root_only_model_is_product_of_marginals():
    rng = np.random.default_rng(41)
    data = MaskedDataset.from_values(rng.normal(size=(100, 2)))
    model = fit_complete(data, Dag.empty(2))
    got = log_density_rows(model, data.values[:5])
    expected = [
        float(np.log(model.marginals[0].pdf(x[0])) + np.log(model.marginals[1].pdf(x[1])))
        for x in data.values[:5]
    ]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


# ------------------------------------------------------------ fitting


def test_fit_complete_recovers_chain_correlation():
    model, _, _ = _chain_model(rho=0.5, num_rows=2000, seed=42)
    for child, _ in model.families():
        assert abs(model.rho[child] - 0.5) < 0.08


def test_fit_complete_requires_complete_data():
    rng = np.random.default_rng(43)
    values = rng.normal(size=(50, 2))
    values[3, 1] = np.nan
    data = MaskedDataset.from_values(values)
    with pytest.raises(InvalidInputError):
        fit_complete(data, Dag.chain(2))


def test_fit_missing_recovers_correlation_under_mask():
    rng = np.random.default_rng(44)
    z = chain_scores(0.6, 2, 2000, rng)
    data = apply_missing_mask(MaskedDataset.from_values(z), 0.1, seed=5)
    model = fit_missing(data, Dag.chain(2))
    assert abs(model.rho[1] - 0.6) < 0.1


def test_fit_handles_warped_marginals():
    model, _, _ = _chain_model(rho=0.5, num_rows=1500, seed=45, warp=True)
    # The copula is invariant to monotone marginal transforms, so the fitted
    # correlations should still be near the generating value.
    for child, _ in model.families():
        assert abs(model.rho[child] - 0.5) < 0.1


# ----------------------------------------------------- bound tightness


def test_bound_equals_density_bitwise_on_complete_rows():
    model, data, _ = _chain_model(warp=True)
    density = log_density_rows(model, data.values)
    np.testing.assert_array_equal(lower_bound_rows(model, data), density)
    assert lower_bound(model, data) == float(density.sum())


def test_scores_stay_finite_beyond_kde_support():
    rng = np.random.default_rng(44)
    data = MaskedDataset.from_values(rng.normal(size=(300, 2)))
    rows = np.array([[40.0, 0.3], [0.1, -0.2], [-0.4, -60.0]])
    # Root-only model: the density is the product of the marginals, and at
    # x = 40 the marginal's kernel sum underflows, so it is taken in logs.
    roots = fit_complete(data, Dag.empty(2))
    m0 = roots.marginals[0]
    t = (40.0 - m0.samples) / m0.bandwidth
    far = logsumexp(-0.5 * t * t) - np.log(m0.samples.size * m0.bandwidth * np.sqrt(2.0 * np.pi))
    expected = far + np.log(roots.marginals[1].pdf(0.3))
    np.testing.assert_allclose(log_density_rows(roots, rows[:1])[0], expected, rtol=1e-12)
    # With a family the bound still equals the density bitwise, and a row
    # whose only observed cell is far out still gets a finite bound.
    model = fit_complete(data, Dag.chain(2))
    density = log_density_rows(model, rows)
    assert np.all(np.isfinite(density))
    np.testing.assert_array_equal(lower_bound_rows(model, MaskedDataset.from_values(rows)), density)
    masked = rows.copy()
    masked[0, 1] = np.nan
    assert np.isfinite(lower_bound_rows(model, MaskedDataset.from_values(masked))[0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    num_rows=st.integers(10, 60),
    rho=st.floats(-0.9, 0.9),
    missing=st.floats(0.0, 0.6),
    log_scale=st.integers(-6, 6),
    decimals=st.sampled_from([None, 0, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_finite_masked_tables_give_finite_cbn_scores(
    n, num_rows, rho, missing, log_scale, decimals, seed
):
    # Dependent, partly skewed columns at any scale, with an outlier and,
    # when rounded, ties.
    rng = np.random.default_rng(seed)
    z = chain_scores(rho, n, num_rows, rng)
    values = np.where(rng.random(n) < 0.5, np.exp(z), z) * 10.0**log_scale
    values[rng.integers(num_rows), rng.integers(n)] *= 1e3
    if decimals is not None:
        values = np.round(values, decimals - log_scale)
    try:
        data = apply_missing_mask(MaskedDataset.from_values(values), missing, seed=seed)
        result = greedy_search(data, SearchConfig(max_parents=2))
        rows = lower_bound_rows(fit_missing(data, result.dag), data)
    except CopulaBnError:
        return  # a loud, typed failure; a fit that returns must score finitely
    assert np.isfinite(result.score)
    assert np.isfinite(result.per_family_scores).all()
    assert np.isfinite(rows).all()


def test_bound_matches_explicit_tensor_quadrature():
    # The bound takes hidden scores' moments in closed form; an explicit
    # Gauss-Hermite tensor grid of any size >= 2 is exact for the quadratic
    # integrand, so every rule must agree with it.
    model, data, _ = _chain_model(num_vars=3, warp=True)
    rho1 = model.rho[1]
    rho2 = model.rho[2]
    x = data.values[11]
    z2 = float(ndtri(model.marginals[2].cdf(x[2])))
    row = MaskedDataset(np.array([[np.nan, np.nan, x[2]]]), np.array([[False, False, True]]),
                        data.column_names)
    got = lower_bound_rows(model, row)[0]

    # A two-parent family, child observed and both parents hidden.
    vee = CbnModel(Dag(3, ((), (), (0, 1))), model.marginals,
                   (None, None, 0.4), model.column_names)
    got_vee = lower_bound_rows(vee, row)[0]

    log_pdf2 = float(np.log(model.marginals[2].pdf(x[2])))
    for num_nodes in (2, 3, 8, 16):
        nodes, weights = normal_hermite_rule(num_nodes)
        grid, tensor_weights = tensor_rule(nodes, weights, 2)
        # family at node 1: child and parent both hidden -> 2-d expectation
        fam1 = float(tensor_weights @ ratio_log_from_z(rho1, grid))
        # family at node 2: child observed, parent hidden -> 1-d expectation
        pairs = np.column_stack([np.full(nodes.size, z2), nodes])
        fam2 = float(weights @ ratio_log_from_z(rho2, pairs))
        np.testing.assert_allclose(got, log_pdf2 + fam1 + fam2, rtol=0, atol=1e-12)
        # two-parent family: 2-d expectation over the parents
        triples = np.column_stack([np.full(grid.shape[0], z2), grid])
        fam_vee = float(tensor_weights @ ratio_log_from_z(0.4, triples))
        np.testing.assert_allclose(got_vee, log_pdf2 + fam_vee, rtol=0, atol=1e-12)


def _oracle_family_objective(model, data, cols, num_nodes=8):
    """Summed expected log ratio terms of one family, each row's hidden
    scores laid on an explicit Gauss-Hermite tensor grid."""
    z = np.zeros(data.values.shape)
    for j, marginal in enumerate(model.marginals):
        obs = data.observed[:, j]
        z[obs, j] = ndtri(marginal.cdf(data.values[obs, j]))
    nodes, weights = normal_hermite_rule(num_nodes)
    points, point_weights = [], []
    for z_row, obs_row in zip(z[:, cols], data.observed[:, cols]):
        hidden = np.flatnonzero(~obs_row)
        grid, grid_weights = tensor_rule(nodes, weights, hidden.size)
        block = np.repeat(z_row[None, :], grid_weights.size, axis=0)
        block[:, hidden] = grid
        points.append(block)
        point_weights.append(grid_weights)
    points, point_weights = np.vstack(points), np.concatenate(point_weights)
    return lambda rho: float(point_weights @ ratio_log_from_z(rho, points))


def test_fit_missing_falls_back_to_the_bound_without_complete_rows():
    # No row observes the whole family, so its rho maximizes the family's
    # summed expected ratio terms over all rows.  With two columns that
    # maximum is at rho = 0; with a two-parent family the rows that see the
    # child and one parent pull it away from 0.
    rng = np.random.default_rng(48)
    for num_cols, dag in ((2, Dag.chain(2)), (3, Dag(3, ((), (), (0, 1))))):
        values = equicorrelated_scores(0.6, num_cols, 240, rng)
        for j in range(num_cols):
            values[j::num_cols, j] = np.nan
        data = MaskedDataset.from_values(values)
        model = fit_missing(data, dag)
        child = num_cols - 1
        objective = _oracle_family_objective(model, data, (child, *dag.parents[child]))
        lo, hi = rho_bounds(num_cols)
        grid_best = max(objective(rho) for rho in np.linspace(lo, hi, 2001))
        assert objective(model.rho[child]) >= grid_best - 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    num_cols=st.integers(7, 9),
    num_rows=st.integers(8, 150),
    hidden_share=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_missing_fits_each_family_from_its_own_statistics(num_cols, num_rows, hidden_share, seed):
    # fit_missing fits each size's families in one batch.  Columns 0 and 1
    # are never observed together, so the families of nodes 1-3 (sizes 1-3)
    # have no complete row and fall back to the bound's S over all rows.
    # Nodes 4 on draw 1-3 parents among columns 2 and up, which rows 4 and 5
    # observe in full and row 6 hides, so each has its own complete-case Z'Z
    # and a row count between 2 and num_rows, in the same size batches.
    # Every rho equals, bitwise, the one-family fit of its own statistics.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((num_rows, num_cols)) @ rng.standard_normal((num_cols,) * 2)
    observed = rng.random(values.shape) >= hidden_share
    both = np.nonzero(observed[:, 0] & observed[:, 1])[0]
    observed[both, rng.integers(0, 2, both.size)] = False
    observed[:4, :2] = [[True, False], [True, False], [False, True], [False, True]]
    observed[4:6, 2:] = True
    observed[6, 2:] = False
    parents = [(), (0,), (0, 1), (0, 1, 2)]
    for node in range(4, num_cols):
        size = node - 3 if node < 7 else int(rng.integers(1, 4))
        parents.append(tuple(int(p) for p in rng.choice(np.arange(2, node), size, replace=False)))
    data = MaskedDataset.from_values(np.where(observed, values, np.nan))
    model = fit_missing(data, Dag(num_cols, tuple(parents)))
    table = _score_table(data)
    for node, ps in enumerate(parents[1:], start=1):
        cols = (node, *ps)
        complete = observed[:, cols].all(axis=1)
        assert (complete.sum() >= 2) == (node >= 4)
        if node >= 4:
            z = table.z[np.ix_(complete, cols)]
            stats = family_stats(z.T @ z, float(complete.sum()), [range(len(cols))])
        else:
            stats = family_stats(table.second, float(num_rows), [cols])
        (rho,), _ = stats.fit()
        assert np.float64(model.rho[node]).tobytes() == rho.tobytes(), cols


def test_bound_never_exceeds_mc_log_evidence():
    model, data, _ = _chain_model(rho=0.5, num_rows=500, seed=46)
    rng = np.random.default_rng(47)
    rho1 = model.rho[1]
    rho2 = model.rho[2]
    for row_index in range(5):
        x = data.values[row_index].copy()
        x[1] = np.nan  # hide the middle variable
        values = x[None, :]
        row = MaskedDataset(values, ~np.isnan(values), data.column_names)
        bound_value = lower_bound_rows(model, row)[0]

        z0 = float(ndtri(model.marginals[0].cdf(x[0])))
        z2 = float(ndtri(model.marginals[2].cdf(x[2])))
        draws = rng.standard_normal(20000)
        log_r = ratio_log_from_z(
            rho1, np.column_stack([draws, np.full(draws.size, z0)])
        ) + ratio_log_from_z(rho2, np.column_stack([np.full(draws.size, z2), draws]))
        ratios = np.exp(log_r)
        estimate = float(ratios.mean())
        se_log = float(ratios.std(ddof=1) / (np.sqrt(draws.size) * estimate))
        observed_part = float(
            np.log(model.marginals[0].pdf(x[0])) + np.log(model.marginals[2].pdf(x[2]))
        )
        mc_log = observed_part + float(np.log(estimate))
        assert bound_value <= mc_log + 3.0 * se_log


# ------------------------------------------------------- energy check


def test_energy_identity_holds_within_monte_carlo_error():
    model, data, _ = _chain_model(rho=0.6, num_rows=400, seed=48, warp=True)
    x = data.values[3].copy()
    x[0] = np.nan
    result = energy_identity_check(model, x, mc_samples=4000, seed=11)
    assert result.mc_standard_error > 0.0
    assert abs(result.bound_term - result.energy_mc) <= 3.0 * result.mc_standard_error


def test_energy_identity_is_exact_without_hidden_cells():
    model, data, _ = _chain_model()
    x = data.values[0]
    result = energy_identity_check(model, x, mc_samples=10)
    assert result.bound_term == result.energy_mc
    assert result.mc_standard_error == 0.0
    # with nothing hidden, the expectation is just the sum of ratio terms,
    # i.e. the joint log density with the marginal log terms removed
    marginal_part = sum(float(np.log(m.pdf(v))) for m, v in zip(model.marginals, x))
    np.testing.assert_allclose(
        result.bound_term, log_density(model, x) - marginal_part, rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("bad", ["0.5", True, [0.5]])
def test_model_rejects_a_rho_that_is_not_a_real_number(bad):
    model, _, _ = _chain_model(num_vars=2)
    with pytest.raises(InvalidRhoError):
        CbnModel(model.dag, model.marginals, (None, bad), model.column_names)


def test_energy_check_rejects_bad_input():
    model, data, _ = _chain_model()
    with pytest.raises(InvalidInputError):
        energy_identity_check(model, data.values[:2], mc_samples=10)
    with pytest.raises(OutOfRangeError):
        energy_identity_check(model, data.values[0], mc_samples=0)
    row = [data.values[0, 0], np.nan, data.values[0, 2]]
    for kwargs in (
        dict(mc_samples=2.5), dict(mc_samples=True), dict(mc_samples=10.0),
        dict(mc_samples=10, seed=-1), dict(mc_samples=10, seed=1.5), dict(mc_samples=10, seed=True),
    ):
        with pytest.raises(OutOfRangeError, match="must be"):
            energy_identity_check(model, row, **kwargs)
    assert energy_identity_check(model, row, np.int64(10), np.uint16(3)) == energy_identity_check(
        model, row, 10, 3
    )


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_energy_check_rejects_infinite_coordinates(bad):
    # As log_density_rows and log_marginal_lg do; NaN still marks a hidden cell.
    model, data, _ = _chain_model()
    for row in ([bad, 0.0, 0.0], [bad, 0.0, np.nan], [np.nan, bad, 0.0]):
        with pytest.raises(InvalidInputError):
            energy_identity_check(model, row, mc_samples=10)
    assert np.isfinite(energy_identity_check(model, [0.1, 0.0, np.nan], mc_samples=10).energy_mc)


# ----------------------------------------------------------- sampling


def test_forward_sample_is_seeded_and_shaped():
    model, _, _ = _chain_model()
    a = forward_sample(model, 40, seed=3)
    b = forward_sample(model, 40, seed=3)
    c = forward_sample(model, 40, seed=4)
    assert a.shape == (40, 3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(OutOfRangeError):
        forward_sample(model, 0, seed=1)
    # A float count or seed is refused, not truncated.
    for count, seed in ((2.5, 0), (True, 0), (3.0, 0), (3, 1.5), (3, -1), (3, True)):
        with pytest.raises(OutOfRangeError, match="must be"):
            forward_sample(model, count, seed)
    np.testing.assert_array_equal(forward_sample(model, np.int64(40), np.uint8(3)), a)


def test_forward_samples_follow_model_marginals():
    model, _, _ = _chain_model(rho=0.7, num_rows=600, seed=49, warp=True)
    samples = forward_sample(model, 4000, seed=5)
    for j, marginal in enumerate(model.marginals):
        pit = marginal.cdf(samples[:, j])
        statistic = kstest(pit, "uniform").statistic
        assert statistic < 0.035


def test_forward_samples_reproduce_pairwise_dependence():
    model, _, _ = _chain_model(rho=0.7, num_rows=800, seed=50)
    samples = forward_sample(model, 6000, seed=6)
    rho = model.rho[1]
    z0 = ndtri(model.marginals[0].cdf(samples[:, 0]))
    z1 = ndtri(model.marginals[1].cdf(samples[:, 1]))
    observed = float(np.corrcoef(z0, z1)[0, 1])
    assert abs(observed - rho) < 0.05


# ------------------------------------------------------- score table


def _warped_train(num_rows=300, num_vars=4, seed=60):
    rng = np.random.default_rng(seed)
    z = chain_scores(0.6, num_vars, num_rows, rng)
    return MaskedDataset.from_values(warp_columns(z, cycle_warps(num_vars)))


def test_fit_model_fits_each_marginal_once(monkeypatch):
    # Search and parameter fit share one score table, so the cbn fit runs
    # one KDE fit per column.  Patch every module that binds fit_kde.
    calls = []

    def counting_fit_kde(*args, **kwargs):
        calls.append(1)
        return fit_kde(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("copulabn") and getattr(module, "fit_kde", None) is fit_kde:
            monkeypatch.setattr(module, "fit_kde", counting_fit_kde)
    train = apply_missing_mask(_warped_train(), 0.25, seed=1)
    model = fit_model(train, "cbn", SearchConfig(max_parents=2))
    assert any(model.dag.parents)
    assert len(calls) == train.num_cols


def test_score_table_is_per_dataset_object_and_read_only():
    data = _warped_train()
    masked = apply_missing_mask(data, 0.3, seed=2)
    full, part = _score_table(data), _score_table(masked)
    assert _score_table(data) is full
    assert part is not full
    assert part.marginals[0].samples.size == int(masked.observed[:, 0].sum()) < data.num_rows
    np.testing.assert_array_equal(np.isnan(part.z), ~masked.observed)
    assert not np.isnan(full.z).any()
    assert not full.z.flags.writeable
    with pytest.raises(ValueError):
        full.z[0, 0] = 0.0


def test_score_table_goes_away_with_its_dataset():
    gc.collect()
    before = len(cbn_module._SCORE_TABLES)
    data = _warped_train(num_rows=50)
    assert _score_table(data).z.shape == (50, 4)
    assert len(cbn_module._SCORE_TABLES) == before + 1
    ref = weakref.ref(data)
    del data
    gc.collect()
    assert ref() is None
    assert len(cbn_module._SCORE_TABLES) == before


def test_shared_score_table_fits_the_same_model(monkeypatch, tmp_path):
    train = apply_missing_mask(_warped_train(seed=61), 0.25, seed=3)
    config = SearchConfig(max_parents=2)
    shared = fit_model(train, "cbn", config)
    save_model(shared, tmp_path / "shared.json")

    def fresh_table(data):
        return cbn_module._ScoreTable(data)

    monkeypatch.setattr(cbn_module, "_score_table", fresh_table)
    monkeypatch.setattr(structure_module, "_score_table", fresh_table)
    bypassed = fit_model(train, "cbn", config)
    save_model(bypassed, tmp_path / "bypassed.json")
    assert shared.dag.parents == bypassed.dag.parents
    assert shared.rho == bypassed.rho
    assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "bypassed.json").read_bytes()
