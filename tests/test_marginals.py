"""Kernel marginals against brute-force normal-mixture oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from copulabn.errors import (
    ConvergenceError,
    DegenerateInputError,
    EmptyInputError,
    InvalidInputError,
    NumericalError,
    OutOfRangeError,
)
from copulabn import marginals as marginals_module
from copulabn.marginals import CDF_CEIL, CDF_FLOOR, KdeMarginal, fit_kde


def _reference_pdf(marginal, x):
    """Direct Gaussian-mixture density: mean of kernel bumps."""
    return np.mean(norm.pdf(x, loc=marginal.samples, scale=marginal.bandwidth))


def _reference_cdf(marginal, x):
    return np.mean(norm.cdf(x, loc=marginal.samples, scale=marginal.bandwidth))


def test_bandwidth_is_scaled_sample_std():
    rng = np.random.default_rng(0)
    values = rng.normal(2.0, 3.0, size=200)
    marginal = fit_kde(values)
    expected = 1.06 * np.std(values, ddof=1) * 200 ** (-0.2)
    np.testing.assert_allclose(marginal.bandwidth, expected, rtol=1e-12)


def test_pdf_matches_mixture_oracle():
    rng = np.random.default_rng(1)
    values = rng.gamma(2.0, 1.5, size=157)
    marginal = fit_kde(values)
    points = np.linspace(-2.0, 12.0, 23)
    expected = [_reference_pdf(marginal, x) for x in points]
    np.testing.assert_allclose(marginal.pdf(points), expected, rtol=0, atol=1e-13)


def test_cdf_matches_mixture_oracle_inside_clamp():
    rng = np.random.default_rng(2)
    values = rng.normal(size=101)
    marginal = fit_kde(values)
    points = np.linspace(-2.5, 2.5, 17)
    expected = [_reference_cdf(marginal, x) for x in points]
    np.testing.assert_allclose(marginal.cdf(points), expected, rtol=0, atol=1e-13)


def test_cdf_is_clamped_to_open_interval():
    values = np.linspace(-1.0, 1.0, 50)
    marginal = fit_kde(values)
    far = np.array([-1e6, 1e6])
    cdf = marginal.cdf(far)
    assert cdf[0] == CDF_FLOOR
    assert cdf[1] == CDF_CEIL


def test_pdf_integrates_to_one_over_support():
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.normal(-3.0, 0.5, 120), rng.normal(2.0, 1.0, 80)])
    marginal = fit_kde(values)
    grid = np.linspace(marginal.support_lo, marginal.support_hi, 20001)
    total = np.trapezoid(marginal.pdf(grid), grid)
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-6)


def test_cdf_is_monotone_and_support_covers_mass():
    rng = np.random.default_rng(4)
    values = rng.standard_t(df=3, size=300)
    marginal = fit_kde(values)
    grid = np.linspace(marginal.support_lo, marginal.support_hi, 4001)
    cdf = marginal.cdf(grid)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] <= 1e-5
    assert cdf[-1] >= 1.0 - 1e-5


def test_quantile_inverts_cdf():
    rng = np.random.default_rng(5)
    values = rng.exponential(2.0, size=250)
    marginal = fit_kde(values)
    levels = np.linspace(0.001, 0.999, 57)
    points = marginal.quantile(levels)
    np.testing.assert_allclose(marginal.cdf(points), levels, rtol=0, atol=1e-9)
    # and the other direction, where the density is not vanishing
    x = np.quantile(values, np.linspace(0.1, 0.9, 9))
    np.testing.assert_allclose(marginal.quantile(marginal.cdf(x)), x, rtol=0, atol=1e-6)


def test_quantile_handles_extreme_levels_via_clamp():
    values = np.linspace(0.0, 1.0, 40)
    marginal = fit_kde(values)
    lo = marginal.quantile(1e-12)
    hi = marginal.quantile(1.0 - 1e-12)
    assert marginal.support_lo <= lo < hi <= marginal.support_hi
    np.testing.assert_allclose(marginal.cdf(lo), CDF_FLOOR, rtol=0, atol=1e-9)
    np.testing.assert_allclose(marginal.cdf(hi), CDF_CEIL, rtol=0, atol=1e-9)


def _column(kind, size, rng):
    z = rng.standard_normal(size)
    if kind == "warped":
        return np.exp(z / 2.0) + 0.3 * z
    if kind == "tied":
        return np.round(z, 0)
    if kind == "gapped":
        return np.where(rng.random(size) < 0.5, z, z + 200.0)
    return rng.standard_cauchy(size)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["warped", "tied", "gapped", "cauchy"]),
    size=st.integers(20, 300),
    seed=st.integers(0, 2**32 - 1),
    narrow=st.booleans(),
    levels=st.lists(st.floats(1e-12, 1.0 - 1e-12), max_size=20),
)
def test_quantile_properties(kind, size, seed, narrow, levels):
    rng = np.random.default_rng(seed)
    # A narrow kernel leaves flat cdf stretches between clusters and ties.
    column = _column(kind, size, rng)
    marginal = KdeMarginal.from_params(column, 0.05) if narrow else fit_kde(column)
    tol = marginals_module._QUANTILE_TOL
    # The first two targets clip to CDF_FLOOR and CDF_CEIL: both ends are reached.
    u = np.concatenate([[1e-12, 1.0 - 1e-12], levels, rng.random(100)])
    x = marginal.quantile(u)
    clipped = np.clip(u, CDF_FLOOR, CDF_CEIL)
    assert np.all(np.abs(marginal.cdf(x) - clipped) < tol)
    assert np.all((marginal.support_lo <= x) & (x <= marginal.support_hi))
    # Targets more than 2 tol apart are ordered by any outputs within tol.
    order = np.argsort(clipped, kind="stable")
    apart = np.diff(clipped[order]) > 2.0 * tol
    assert np.all(np.diff(x[order])[apart] >= 0.0)


def test_quantile_needs_few_cdf_sweeps(monkeypatch):
    rng = np.random.default_rng(7)
    z = rng.standard_normal(1000)
    marginal = fit_kde(np.exp(z / 2.0) + 0.3 * z)
    marginal._bracket_grid  # the one-off cdf table is not an iteration
    calls = []
    cdf = KdeMarginal.cdf
    monkeypatch.setattr(KdeMarginal, "cdf", lambda self, x: calls.append(1) or cdf(self, x))
    u = rng.random(1000)
    x = marginal.quantile(u)
    assert len(calls) <= 8
    monkeypatch.undo()
    assert np.all(np.abs(marginal.cdf(x) - np.clip(u, CDF_FLOOR, CDF_CEIL)) < 1e-10)


def test_quantile_raises_when_out_of_iterations(monkeypatch):
    rng = np.random.default_rng(8)
    marginal = fit_kde(rng.gamma(2.0, 1.0, size=200))
    levels = np.linspace(0.01, 0.99, 50)
    monkeypatch.setattr(marginals_module, "_QUANTILE_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        marginal.quantile(levels)
    monkeypatch.undo()
    assert issubclass(ConvergenceError, NumericalError)  # so the CLI exits 3
    marginal.quantile(levels)


def test_quantile_rejects_closed_endpoints():
    marginal = fit_kde(np.arange(10.0))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(OutOfRangeError):
            marginal.quantile(bad)


def test_scalar_and_vector_calls_agree():
    marginal = fit_kde(np.arange(25.0))
    xs = np.array([3.0, 11.5, 19.25])
    np.testing.assert_array_equal(marginal.pdf(xs), [marginal.pdf(x) for x in xs])
    np.testing.assert_array_equal(marginal.cdf(xs), [marginal.cdf(x) for x in xs])
    assert np.ndim(marginal.pdf(3.0)) == 0
    assert np.ndim(marginal.cdf(3.0)) == 0


def test_nan_values_are_dropped():
    values = np.array([1.0, np.nan, 2.0, 3.0, np.nan, 4.0])
    marginal = fit_kde(values)
    np.testing.assert_array_equal(np.sort(marginal.samples), [1.0, 2.0, 3.0, 4.0])


def test_fit_rejects_bad_input():
    with pytest.raises(EmptyInputError):
        fit_kde(np.array([]))
    with pytest.raises(EmptyInputError):
        fit_kde(np.array([np.nan, np.nan]))
    with pytest.raises(DegenerateInputError):
        fit_kde(np.full(30, 7.0))
    with pytest.raises(InvalidInputError):
        fit_kde(np.array([1.0, np.inf, 2.0]))
    with pytest.raises(OutOfRangeError):
        KdeMarginal.from_params(np.arange(5.0), 0.0)
    with pytest.raises(OutOfRangeError):
        KdeMarginal.from_params(np.arange(5.0), -1.0)
    with pytest.raises(InvalidInputError):
        fit_kde(np.ones((3, 3)))


def test_from_params_reproduces_fit():
    rng = np.random.default_rng(6)
    values = rng.normal(size=80)
    fitted = fit_kde(values)
    rebuilt = KdeMarginal.from_params(fitted.samples, fitted.bandwidth)
    np.testing.assert_array_equal(rebuilt.samples, fitted.samples)
    assert rebuilt.bandwidth == fitted.bandwidth
    assert rebuilt.support_lo == fitted.support_lo
    assert rebuilt.support_hi == fitted.support_hi
    x = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(rebuilt.pdf(x), fitted.pdf(x))


def test_log_pdf_matches_log_of_pdf_where_positive():
    rng = np.random.default_rng(9)
    marginal = fit_kde(rng.normal(size=300))
    x = np.linspace(-6.0, 6.0, 41)
    np.testing.assert_array_equal(marginal.log_pdf(x), np.log(marginal.pdf(x)))
    assert marginal.log_pdf(0.5) == np.log(marginal.pdf(0.5))


def test_log_pdf_is_finite_where_pdf_underflows():
    rng = np.random.default_rng(10)
    marginal = fit_kde(rng.normal(size=300))
    x = np.array([-55.0, 0.0, 40.0, 1e4])
    assert marginal.pdf(40.0) == 0.0
    got = marginal.log_pdf(x)
    assert np.all(np.isfinite(got))
    m, h = marginal.samples.size, marginal.bandwidth
    for value, xi in zip(got, x):
        t = (xi - marginal.samples) / h
        expected = logsumexp(-0.5 * t * t) - np.log(m * h * np.sqrt(2.0 * np.pi))
        np.testing.assert_allclose(value, expected, rtol=1e-12)


@pytest.mark.parametrize(
    "query",
    [0.3, np.array([]), np.linspace(-4.0, 4.0, 23), np.array([-60.0, -0.2, 45.0, 1e4, 2.5])],
    ids=["scalar", "empty", "ragged", "far"],
)
def test_kernel_blocks_do_not_change_results(monkeypatch, query):
    # Blocks split only along the query points, so every block size must
    # give bitwise the same pdf, cdf and log_pdf: one point per block (a
    # budget of 1 or 7 elements), 7 points per block (a ragged last block
    # for 23 or 5 points), and one block for all.
    rng = np.random.default_rng(11)
    marginal = fit_kde(rng.gamma(2.0, 1.5, size=301))
    assert marginal.pdf(45.0) == 0.0  # "far" takes the logsumexp branch
    results = []
    for chunk in (1, 7, 7 * 301, 10**9):
        monkeypatch.setattr(marginals_module, "_CHUNK_ELEMENTS", chunk)
        results.append([np.asarray(f(query)) for f in (marginal.pdf, marginal.cdf, marginal.log_pdf)])
    for other in results[1:]:
        for got, want in zip(other, results[0]):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    if np.ndim(query):
        assert np.all(np.isfinite(results[0][2]))
