"""Acceptance gate: one test per numbered criterion of the release checklist.

Criteria that need the public Wine or Crime tables run verbatim when the
files are present under ``tests/data`` (see ``scripts/fetch_datasets.py``)
and skip with instructions otherwise; each such criterion also has an
always-run surrogate on synthetic data exercising the same property.
Tolerances are pinned in the assertions.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import kstest, multivariate_normal, spearmanr

from copulabn.benchmark import run_benchmark
from copulabn.cbn import (
    CbnModel,
    energy_identity_check,
    fit_complete,
    fit_missing,
    forward_sample,
    log_density_rows,
    lower_bound_rows,
)
from copulabn.copula import (
    UniformGaussianCopula,
    copula_log_density,
    copula_log_density_rows,
    fit_rho,
    ratio_log_from_z,
    uniform_sigma_logdet,
)
from copulabn.dag import Dag
from copulabn.data import (
    ExperimentProtocol,
    MaskedDataset,
    apply_missing_mask,
    load_csv,
    make_split,
    save_csv,
)
from copulabn.gaussian_bn import (
    LinearGaussianBn,
    em_fit_lg,
    joint_gaussian,
    log_marginal_lg,
)
from copulabn.marginals import fit_kde
from copulabn.structure import SearchConfig, greedy_search

from conftest import (
    chain_scores,
    cycle_warps,
    equicorrelated_scores,
    warp_columns,
)


def _report(num, message):
    print(f"criterion {num}: PASS - {message}")


def _small_model_suite():
    """Four small fitted models with their training data: two bivariate
    (opposite dependence signs), a 3-variable chain, a 3-variable collider."""
    out = []
    rng = np.random.default_rng(333)
    for rho in (-0.4, 0.6):
        z = rng.standard_normal((400, 2))
        z[:, 1] = rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]
        data = MaskedDataset.from_values(warp_columns(z, cycle_warps(2)))
        out.append((fit_complete(data, Dag.chain(2)), data))
    z = chain_scores(0.5, 3, 400, rng)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(3)))
    out.append((fit_complete(data, Dag.chain(3)), data))
    z = rng.standard_normal((400, 3))
    z[:, 2] = 0.5 * z[:, 0] + 0.4 * z[:, 1] + 0.6 * rng.standard_normal(400)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(3)))
    out.append((fit_complete(data, Dag.from_edges(3, [(0, 2), (1, 2)])), data))
    return out


# ---------------------------------------------------------------------
# 1. The missing-data likelihood bound never exceeds the true
#    observed-data log-likelihood (Monte Carlo reference, 1e5 samples
#    per instance, 20 fixed seeds, < 2 minutes).
# ---------------------------------------------------------------------


def test_criterion_01_missing_data_bound_never_exceeds_monte_carlo_evidence():
    started = time.perf_counter()
    rho = 0.5
    names = ("x0", "x1", "x2")
    num_instances = 25
    num_draws = 100_000
    min_slack = np.inf
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        z = chain_scores(rho, 3, 500, rng)
        x = warp_columns(z, cycle_warps(3))
        marginals = tuple(fit_kde(x[:, j]) for j in range(3))
        model = CbnModel(
            dag=Dag.chain(3),
            marginals=marginals,
            rho=(None, rho, rho),
            column_names=names,
        )

        # one hidden cell per evaluation instance
        idx = rng.integers(0, 500, num_instances)
        hide = rng.integers(0, 3, num_instances)
        values = x[idx].copy()
        for i in range(num_instances):
            values[i, hide[i]] = np.nan
        data = MaskedDataset(values, ~np.isnan(values), names)
        bound = float(lower_bound_rows(model, data).sum())

        # Monte Carlo estimate of the observed-data log-likelihood: hidden
        # value drawn from its own marginal is a standard normal in score
        # space, so the evidence is E[exp(sum of log ratio terms)]
        total_mc = 0.0
        total_var = 0.0
        for i in range(num_instances):
            obs = np.nonzero(~np.isnan(values[i]))[0]
            h = int(hide[i])
            z_obs = {j: float(ndtri(marginals[j].cdf(values[i, j]))) for j in obs}
            draws = rng.standard_normal(num_draws)
            total = np.zeros(num_draws)
            for child, parents in model.families():
                block = np.empty((num_draws, 2))
                for c, j in enumerate((child, *parents)):
                    block[:, c] = draws if j == h else z_obs[j]
                total += ratio_log_from_z(2, rho, block)
            shift = total.max()
            weights = np.exp(total - shift)
            mean_w = float(weights.mean())
            log_evidence = shift + np.log(mean_w)
            se = float(weights.std(ddof=1)) / (np.sqrt(num_draws) * mean_w)
            obs_marginal = sum(
                float(np.log(marginals[j].pdf(values[i, j]))) for j in obs
            )
            total_mc += obs_marginal + log_evidence
            total_var += se * se

        slack = (total_mc + 3.0 * np.sqrt(total_var)) - bound
        assert slack >= 0.0, f"seed {seed}: bound exceeds MC evidence by {-slack}"
        min_slack = min(min_slack, slack)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s (limit 120s)"
    _report(1, f"min slack {min_slack:.3f} nats over 20 seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 2. With zero missing cells the bound equals the complete-data
#    log-likelihood to 1e-12 (train halves).
# ---------------------------------------------------------------------


def _assert_bound_equals_likelihood(data, max_parents=1):
    structure = greedy_search(data, SearchConfig(max_parents=max_parents))
    model = fit_missing(data, structure.dag)
    bound = lower_bound_rows(model, data)
    exact = log_density_rows(model, data.values)
    np.testing.assert_array_equal(bound, exact)
    assert abs(float(bound.sum()) - float(exact.sum())) <= 1e-12


def test_criterion_02_bound_equals_log_likelihood_without_missing_cells(wine_path):
    data = load_csv(wine_path)
    protocol = ExperimentProtocol(num_splits=10, base_seed=0)
    for split in range(10):
        train, _ = make_split(data, protocol, split)
        _assert_bound_equals_likelihood(train)
    _report(2, "bound == log-likelihood on all 10 train halves (wine)")


def test_criterion_02_surrogate_bound_equals_log_likelihood_synthetic():
    rng = np.random.default_rng(22)
    z = chain_scores(0.5, 5, 400, rng)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(5)))
    protocol = ExperimentProtocol(num_splits=10, base_seed=0)
    for split in range(10):
        train, _ = make_split(data, protocol, split)
        _assert_bound_equals_likelihood(train)
    _report(2, "bound == log-likelihood on all 10 synthetic train halves")


# ---------------------------------------------------------------------
# 3. The bound's per-instance expectation term agrees with direct Monte
#    Carlo within 3 standard errors across the small-model suite
#    (20 seeds).
# ---------------------------------------------------------------------


def test_criterion_03_energy_identity_on_small_model_suite():
    models = _small_model_suite()
    worst = 0.0
    for seed in range(20):
        for model, data in models:
            x = data.values[seed].copy()
            x[seed % data.num_cols] = np.nan
            result = energy_identity_check(model, x, mc_samples=20_000, seed=seed)
            ratio = abs(result.bound_term - result.energy_mc) / result.mc_standard_error
            assert ratio <= 3.0, (
                f"seed {seed}: closed form and MC disagree by {ratio:.2f} se"
            )
            worst = max(worst, ratio)
    _report(3, f"worst |bound - mc| = {worst:.2f} se over 80 checks")


# ---------------------------------------------------------------------
# 4. Copula correctness: bivariate density integrates to 1 within 1e-3
#    for rho in {-0.5, 0, 0.5, 0.9}; closed-form determinant and inverse
#    match a dense-LU oracle within 1e-10 for n <= 6.
# ---------------------------------------------------------------------


def test_criterion_04_copula_normalization_and_linear_algebra():
    # normalization by tensor Gauss-Legendre over the open unit square
    nodes, weights = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    uu, vv = np.meshgrid(u, u)
    grid = np.column_stack([uu.ravel(), vv.ravel()])
    ww = np.outer(w, w).ravel()
    for rho in (-0.5, 0.0, 0.5, 0.9):
        c = UniformGaussianCopula(2, rho)
        mass = float(ww @ np.exp(copula_log_density_rows(c, grid)))
        assert abs(mass - 1.0) < 1e-3, f"rho={rho}: mass {mass}"

    # determinant and inverse against dense linear algebra
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        lo = -1.0 / (n - 1)
        for rho in (lo + 1e-3, -0.2, 0.3, 0.8, 0.999):
            if rho <= lo:
                continue
            sigma = np.full((n, n), rho)
            np.fill_diagonal(sigma, 1.0)
            sign, logdet = np.linalg.slogdet(sigma)
            assert sign > 0
            got_logdet = uniform_sigma_logdet(n, rho)
            np.testing.assert_allclose(got_logdet, logdet, rtol=1e-10, atol=1e-10)

            # quadratic form z' Sigma^{-1} z recovered from the density
            c = UniformGaussianCopula(n, rho)
            z = rng.standard_normal(n)
            from scipy.special import ndtr

            log_c = copula_log_density(c, ndtr(z))
            quad_form = -2.0 * log_c - got_logdet + z @ z
            oracle = z @ np.linalg.solve(sigma, z)
            np.testing.assert_allclose(quad_form, oracle, rtol=1e-10, atol=1e-10)
    _report(4, "normalization within 1e-3; logdet/inverse within 1e-10 for n<=6")


# ---------------------------------------------------------------------
# 5. Correlation recovery: 0.6 within +-0.05 from 2000 complete rows,
#    within +-0.1 at 10% missing. Runtime < 30 s.
# ---------------------------------------------------------------------


def test_criterion_05_correlation_recovery_complete_and_missing():
    started = time.perf_counter()
    rho_star = 0.6
    rng = np.random.default_rng(55)
    z = equicorrelated_scores(rho_star, 2, 2000, rng)

    from scipy.special import ndtr

    rho_hat = fit_rho(ndtr(z))
    assert abs(rho_hat - rho_star) <= 0.05, f"complete-data estimate {rho_hat}"

    x = warp_columns(z, cycle_warps(2))
    data = apply_missing_mask(MaskedDataset.from_values(x), 0.1, seed=56)
    model = fit_missing(data, Dag.chain(2))
    rho_missing = model.rho[1]
    assert abs(rho_missing - rho_star) <= 0.1, f"missing-data estimate {rho_missing}"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s (limit 30s)"
    _report(
        5,
        f"complete {rho_hat:.3f}, 10% missing {rho_missing:.3f} "
        f"(target 0.6), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------
# 6. Structure recovery: the greedy search finds the 5-node chain
#    skeleton at M=2000 and returns the empty graph on independent
#    columns.
# ---------------------------------------------------------------------


def test_criterion_06_structure_recovery_chain_and_independence():
    expected = Dag.chain(5).skeleton()
    for seed in (1000, 1001, 1002):
        rng = np.random.default_rng(seed)
        z = chain_scores(0.5, 5, 2000, rng)
        data = MaskedDataset.from_values(warp_columns(z, cycle_warps(5)))
        result = greedy_search(data, SearchConfig())
        assert result.dag.skeleton() == expected, f"seed {seed}"
    for seed in (2000, 2001, 2002):
        rng = np.random.default_rng(seed)
        x = warp_columns(rng.standard_normal((2000, 5)), cycle_warps(5))
        result = greedy_search(MaskedDataset.from_values(x), SearchConfig())
        assert result.dag.num_edges() == 0, f"seed {seed}"
    _report(6, "chain skeleton and empty graph recovered on all seeds")


# ---------------------------------------------------------------------
# 7. Benchmark ordering on Wine: tree copula network beats the tree
#    linear-Gaussian baseline at missing fractions 0 and 0.1, and the
#    gap never increases from 0 to 0.25. Runtime < 10 minutes.
# ---------------------------------------------------------------------


def _benchmark_means(dataset_path, out_path, fractions, num_splits, base_seed):
    result = run_benchmark(
        dataset_path,
        ExperimentProtocol(num_splits=num_splits, base_seed=base_seed),
        ["cbn", "lgbn"],
        [1],
        list(fractions),
        out_path,
    )
    means = {}
    for agg in result.aggregates:
        means[(agg.model_kind, agg.missing_fraction)] = agg.test_mean
    return means


def test_criterion_07_tree_copula_beats_linear_baseline_on_wine(wine_path, tmp_path):
    started = time.perf_counter()
    means = _benchmark_means(
        wine_path, tmp_path / "wine_bench.csv", (0.0, 0.1, 0.25), 10, 0
    )
    gaps = {p: means[("cbn", p)] - means[("lgbn", p)] for p in (0.0, 0.1, 0.25)}
    assert gaps[0.0] > 0.0, f"no advantage at p=0: {gaps[0.0]}"
    assert gaps[0.1] > 0.0, f"no advantage at p=0.1: {gaps[0.1]}"
    assert gaps[0.0] >= gaps[0.1] >= gaps[0.25], f"gap trend not non-increasing: {gaps}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s (limit 600s)"
    _report(7, f"gaps {gaps} over 10 splits, {elapsed:.1f}s")


def test_criterion_07_surrogate_tree_copula_beats_linear_baseline(tmp_path):
    rng = np.random.default_rng(77)
    z = chain_scores(0.6, 6, 600, rng)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(6)))
    csv_path = tmp_path / "c7.csv"
    save_csv(data, csv_path)
    means = _benchmark_means(csv_path, tmp_path / "c7_bench.csv", (0.0, 0.1, 0.25), 10, 7)
    gaps = {p: means[("cbn", p)] - means[("lgbn", p)] for p in (0.0, 0.1, 0.25)}
    # ordering holds at every fraction on this synthetic task; the gap
    # trend itself is only asserted on the real table above
    for p, gap in gaps.items():
        assert gap > 0.0, f"no advantage at p={p}: {gap}"
    _report(7, f"surrogate gaps {gaps} over 10 splits")


# ---------------------------------------------------------------------
# 8. Crime smoke scale: on a 30-column subset at 5% missing the copula
#    network's mean test score beats the baseline over 5 splits.
# ---------------------------------------------------------------------


def test_criterion_08_crime_subset_beats_baseline(crime_path, tmp_path):
    data = load_csv(crime_path)
    subset = data.take_columns(list(range(30)))
    subset_path = tmp_path / "crime30.csv"
    save_csv(subset, subset_path)
    result = run_benchmark(
        subset_path,
        ExperimentProtocol(num_splits=5, base_seed=0),
        ["cbn", "lgbn"],
        [2],
        [0.05],
        tmp_path / "crime_bench.csv",
    )
    means = {agg.model_kind: agg.test_mean for agg in result.aggregates}
    assert means["cbn"] > means["lgbn"], f"means {means}"
    _report(8, f"crime 30-column means {means} over 5 splits")


def test_criterion_08_surrogate_dependent_columns_beat_baseline(tmp_path):
    rng = np.random.default_rng(88)
    z = equicorrelated_scores(0.4, 10, 400, rng)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(10)))
    csv_path = tmp_path / "c8.csv"
    save_csv(data, csv_path)
    result = run_benchmark(
        csv_path,
        ExperimentProtocol(num_splits=5, base_seed=8),
        ["cbn", "lgbn"],
        [2],
        [0.05],
        tmp_path / "c8_bench.csv",
    )
    means = {agg.model_kind: agg.test_mean for agg in result.aggregates}
    assert means["cbn"] > means["lgbn"], f"means {means}"
    _report(8, f"surrogate means {means} over 5 splits")


# ---------------------------------------------------------------------
# 9. Sampling consistency: forward samples from a fitted model pass
#    per-column KS < 0.03 against the model marginals at count=5000, and
#    the strongest learned edge's sample Spearman correlation is within
#    +-0.08 of the Gaussian-copula closed form.
# ---------------------------------------------------------------------


def _check_sampling(model, sample_seed):
    x = forward_sample(model, 5000, seed=sample_seed)
    ks_worst = 0.0
    for j, marginal in enumerate(model.marginals):
        stat = kstest(x[:, j], marginal.cdf).statistic
        assert stat < 0.03, f"column {j}: KS {stat:.4f}"
        ks_worst = max(ks_worst, stat)

    strongest = max(
        (i for i, r in enumerate(model.rho) if r is not None),
        key=lambda i: abs(model.rho[i]),
    )
    rho = model.rho[strongest]
    parent = model.dag.parents[strongest][0]
    got = spearmanr(x[:, strongest], x[:, parent]).statistic
    want = 6.0 / np.pi * np.arcsin(rho / 2.0)
    assert abs(got - want) <= 0.08, f"spearman {got:.4f} vs closed form {want:.4f}"
    return ks_worst, got, want


def test_criterion_09_sampling_matches_fitted_model_on_wine(wine_path):
    data = load_csv(wine_path)
    structure = greedy_search(data, SearchConfig(max_parents=1))
    model = fit_missing(data, structure.dag)
    ks_worst, got, want = _check_sampling(model, sample_seed=9)
    _report(9, f"wine KS max {ks_worst:.4f}; spearman {got:.4f} vs {want:.4f}")


def test_criterion_09_surrogate_sampling_matches_fitted_model():
    rng = np.random.default_rng(99)
    z = chain_scores(0.65, 4, 1200, rng)
    data = MaskedDataset.from_values(warp_columns(z, cycle_warps(4)))
    model = fit_complete(data, Dag.chain(4))
    ks_worst, got, want = _check_sampling(model, sample_seed=9)
    _report(9, f"surrogate KS max {ks_worst:.4f}; spearman {got:.4f} vs {want:.4f}")


# ---------------------------------------------------------------------
# 10. Baseline integrity: EM's observed-data log-likelihood never
#     decreases on any run, and exact marginalization matches adaptive
#     quadrature within 1e-6 on 2-3 variable models.
# ---------------------------------------------------------------------


def test_criterion_10_em_monotone_and_exact_marginalization():
    # EM monotonicity across structures, fractions, and seeds
    truth = LinearGaussianBn(
        dag=Dag.from_edges(3, [(0, 2), (1, 2)]),
        intercepts=(0.5, -1.0, 1.0),
        coefficients=((), (), (0.8, -0.5)),
        variances=(1.0, 2.0, 0.49),
        column_names=("a", "b", "c"),
    )
    runs = 0
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        x = np.zeros((400, 3))
        x[:, 0] = 0.5 + rng.standard_normal(400)
        x[:, 1] = -1.0 + np.sqrt(2.0) * rng.standard_normal(400)
        x[:, 2] = 1.0 + 0.8 * x[:, 0] - 0.5 * x[:, 1] + 0.7 * rng.standard_normal(400)
        for p in (0.1, 0.3):
            data = apply_missing_mask(
                MaskedDataset.from_values(x, truth.column_names), p, seed=700 + seed
            )
            for dag in (truth.dag, Dag.chain(3), Dag.empty(3)):
                history = []
                em_fit_lg(data, dag, history=history)
                diffs = np.diff(history)
                assert (diffs >= -1e-8).all(), (
                    f"seed {seed} p={p}: EM decreased by {diffs.min()}"
                )
                runs += 1

    # exact marginalization vs adaptive quadrature
    two_var = LinearGaussianBn(
        dag=Dag.chain(2),
        intercepts=(0.3, -0.2),
        coefficients=((), (0.7,)),
        variances=(1.3, 0.6),
        column_names=("x0", "x1"),
    )
    for model, instance, hidden in (
        (two_var, [0.4, np.nan], 1),
        (two_var, [np.nan, 1.7], 0),
        (truth, [0.9, np.nan, 1.4], 1),
    ):
        mean, cov = joint_gaussian(model)
        joint = multivariate_normal(mean=mean, cov=cov)

        def integrand(v, inst=instance, h=hidden):
            filled = list(inst)
            filled[h] = v
            return joint.pdf(filled)

        integral, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-12)
        got = log_marginal_lg(model, instance)
        np.testing.assert_allclose(got, np.log(integral), rtol=0, atol=1e-6)
    _report(10, f"{runs} monotone EM runs; quadrature matches within 1e-6")


# ---------------------------------------------------------------------
# 11. Marginal-estimator stability: the CDF fitted from a 25% subsample
#     stays within 0.05 sup-norm of the full-data fit on every column
#     across 10 seeds.
# ---------------------------------------------------------------------


def _kde_subsample_worst(values, seeds, subsample_seed_base):
    num_rows, num_cols = values.shape
    quarter = num_rows // 4
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(subsample_seed_base + seed)
        idx = rng.choice(num_rows, size=quarter, replace=False)
        for j in range(num_cols):
            full = fit_kde(values[:, j])
            sub = fit_kde(values[idx, j])
            grid = np.linspace(values[:, j].min(), values[:, j].max(), 512)
            diff = float(np.max(np.abs(full.cdf(grid) - sub.cdf(grid))))
            assert diff < 0.05, f"seed {seed} column {j}: sup-norm {diff:.4f}"
            worst = max(worst, diff)
    return worst


def test_criterion_11_kde_stability_under_subsampling_wine(wine_path):
    data = load_csv(wine_path)
    worst = _kde_subsample_worst(data.values, range(10), 1100)
    _report(11, f"wine worst sup-norm {worst:.4f} over 10 seeds")


def test_criterion_11_surrogate_kde_stability_under_subsampling():
    rng = np.random.default_rng(111)
    values = warp_columns(rng.standard_normal((2000, 4)), cycle_warps(4))
    worst = _kde_subsample_worst(values, range(10), 300)
    _report(11, f"surrogate worst sup-norm {worst:.4f} over 10 seeds")
