"""Kernel marginals against brute-force normal-mixture oracles."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from copulabn.marginals import CDF_CEIL, CDF_FLOOR, KdeMarginal, _alone, _Table, fit_kde
from conftest import dense_kde, translated_table

# A tall column, of thousands of centres as on the tall-complete benchmark.
TALL = 4000


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
    # 300 centres and TALL centres: the expansion's cdf is monotone too.
    for size in (300, TALL):
        rng = np.random.default_rng(4)
        values = rng.standard_t(df=3, size=size)
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
    size=st.one_of(st.integers(20, 300), st.integers(TALL - 500, TALL)),
    seed=st.integers(0, 2**32 - 1),
    narrow=st.booleans(),
    levels=st.lists(st.floats(1e-12, 1.0 - 1e-12), max_size=20),
)
@example(kind="gapped", size=TALL, seed=3, narrow=True, levels=[0.5])
@example(kind="tied", size=TALL, seed=4, narrow=False, levels=[0.25])
def test_quantile_properties(kind, size, seed, narrow, levels):
    rng = np.random.default_rng(seed)
    # A narrow kernel leaves flat cdf stretches between clusters and ties.
    column = _column(kind, size, rng)
    marginal = KdeMarginal(column, 0.05) if narrow else fit_kde(column)
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
    # n targets pay for a cdf table of at most n + 1 points and then at most
    # 8 Newton sweeps, each one gather of the table for the cdf and the pdf.
    # 20 targets on a 150-centre column evaluate fewer points in all than a
    # fixed 1,025-point table alone would.
    rng = np.random.default_rng(7)
    z = rng.standard_normal(1000)
    column = np.exp(z / 2.0) + 0.3 * z
    sizes = []
    sums = _Table.sums
    monkeypatch.setattr(
        _Table, "sums", lambda self, x, col, pdf, cdf: sizes.append(x.size) or sums(self, x, col, pdf, cdf)
    )
    draws = []
    for centres, n in ((1000, 1000), (150, 20)):
        marginal = fit_kde(column[:centres])
        u = rng.random(n)
        sizes.clear()
        draws.append((marginal, u, marginal.quantile(u)))
        assert sizes[0] <= n + 1
        assert 1 <= len(sizes) - 1 <= 8
        assert max(sizes[1:]) <= n
    assert sum(sizes) < 1025
    monkeypatch.undo()
    for marginal, u, x in draws:
        assert np.all(np.abs(marginal.cdf(x) - np.clip(u, CDF_FLOOR, CDF_CEIL)) < 1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["tied", "gapped", "cauchy"]),
    size=st.one_of(st.integers(20, 199), st.integers(200, TALL)),
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(
        st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12]), st.floats(1e-12, 1.0 - 1e-12)),
        min_size=1,
        max_size=3,
    ),
)
@example(kind="cauchy", size=20, seed=82, levels=[1.0 - 1e-12])  # a first guess past support_hi
@example(kind="gapped", size=150, seed=5, levels=[1e-12, 0.5, 1.0 - 1e-12])
@example(kind="gapped", size=TALL, seed=6, levels=[0.5])
@example(kind="cauchy", size=TALL, seed=7, levels=[1.0 - 1e-12, 1e-12])
@example(kind="tied", size=200, seed=8, levels=[0.3, 0.7])
def test_quantile_of_a_small_draw(kind, size, seed, levels):
    # One to three targets get a table of two to four points, so on a
    # narrow kernel most of a gapped, tied or Cauchy column lies in one
    # bracket.  The safeguarded steps must still reach the tolerance.
    rng = np.random.default_rng(seed)
    marginal = KdeMarginal(_column(kind, size, rng), 0.05)
    tol = marginals_module._QUANTILE_TOL
    u = np.array(levels)
    x = marginal.quantile(u)
    clipped = np.clip(u, CDF_FLOOR, CDF_CEIL)
    assert np.all(np.abs(marginal.cdf(x) - clipped) < tol)
    assert np.all((marginal.support_lo <= x) & (x <= marginal.support_hi))
    order = np.argsort(clipped, kind="stable")
    apart = np.diff(clipped[order]) > 2.0 * tol
    assert np.all(np.diff(x[order])[apart] >= 0.0)


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


@pytest.mark.parametrize("size", [300, 150])
def test_quantile_far_from_zero_stops_at_a_bracket_one_float_wide(size):
    # Adjacent floats near 1e8 lie 1.5e-8 apart, so the cdf steps by about
    # 6e-9 between them and no float reaches _QUANTILE_TOL of a target.  At
    # both sizes the quantile inverts the public cdf.
    rng = np.random.default_rng(9)
    marginal = fit_kde(1e8 + rng.standard_normal(size))
    u = np.array([0.2, 0.8, 0.5, 0.03])
    x = marginal.quantile(u)

    def err(v):
        return marginal.cdf(v) - u

    below, above = err(np.nextafter(x, -np.inf)), err(np.nextafter(x, np.inf))
    assert np.all(below < 0.0) and np.all(above > 0.0)  # x is within one float of the target
    assert np.all(np.abs(err(x)) <= np.minimum(-below, above))  # and the nearer end
    assert np.any(np.abs(err(x)) >= marginals_module._QUANTILE_TOL)  # the new stop ended some target


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
        KdeMarginal(np.arange(5.0), 0.0)
    with pytest.raises(OutOfRangeError):
        KdeMarginal(np.arange(5.0), -1.0)
    with pytest.raises(InvalidInputError):
        fit_kde(np.ones((3, 3)))


@pytest.mark.parametrize(
    "samples, bandwidth, error",
    [
        (np.arange(5.0), 0.0, OutOfRangeError),
        (np.arange(5.0), -1.0, OutOfRangeError),
        (np.arange(5.0), np.nan, OutOfRangeError),
        ([], 0.5, EmptyInputError),
        ([0.0, np.inf, 2.0], 0.5, InvalidInputError),
        ([0.0, 1.0, 2.0], "0.5", OutOfRangeError),
        ([0.0, 1.0, 2.0], True, OutOfRangeError),
        ([0.0, 1.0, 2.0], np.bool_(True), OutOfRangeError),
        ([0.0, 1.0, 2.0], [0.5], OutOfRangeError),
        ([True, False], 0.5, InvalidInputError),
        (["0", "1"], 0.5, InvalidInputError),
        ([0.0, None], 0.5, InvalidInputError),
    ],
    ids=[
        "bandwidth 0", "bandwidth -1", "bandwidth nan", "no samples", "an inf sample",
        "a string bandwidth", "a boolean bandwidth", "a numpy boolean bandwidth", "a list bandwidth",
        "boolean samples", "string samples", "a None sample",
    ],
)
def test_the_constructor_refuses_an_invalid_marginal(samples, bandwidth, error):
    with pytest.raises(error):
        KdeMarginal(samples, bandwidth)


@pytest.mark.parametrize(
    "samples, bandwidth",
    [
        ([0, 1, 2], 1),
        (np.arange(3, dtype=np.uint8), np.int64(2)),
        (np.arange(3, dtype=np.int32), np.float32(0.5)),
        (np.arange(3.0, dtype=np.float32), np.array(0.5)),
    ],
    ids=["python ints", "numpy unsigned and int64", "numpy int32 and float32", "float32 and a 0-d array"],
)
def test_the_constructor_takes_numpy_numbers(samples, bandwidth):
    marginal = KdeMarginal(samples, bandwidth)
    assert type(marginal.bandwidth) is float and marginal.bandwidth == float(bandwidth)
    assert marginal.samples.dtype == np.float64
    np.testing.assert_array_equal(marginal.samples, [0.0, 1.0, 2.0])


def test_a_marginal_is_its_samples_and_bandwidth():
    column = np.array([0.0, 1.0, 2.0])
    marginal = KdeMarginal(column, 0.5)
    column[:] = 50.0  # the caller's array, not the marginal's copy
    fresh = KdeMarginal([0.0, 1.0, 2.0], 0.5)
    assert marginal.pdf(0.5) == fresh.pdf(0.5) > 0.1
    column[:] = -50.0  # after the first call too
    assert marginal.pdf(0.5) == fresh.pdf(0.5)
    assert not marginal.samples.flags.writeable
    assert (marginal.support_lo, marginal.support_hi) == (-2.5, 4.5)
    assert abs(marginal.quantile(0.5) - 1.0) < 1e-9
    with pytest.raises(TypeError):
        KdeMarginal(column, 0.5, support_lo=10.0)


def test_rebuilt_marginal_reproduces_fit():
    rng = np.random.default_rng(6)
    values = rng.normal(size=80)
    fitted = fit_kde(values)
    rebuilt = KdeMarginal(fitted.samples, fitted.bandwidth)
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
    # Also where the pdf is subnormal: its few significant bits would put
    # errors of up to 0.75 nats into np.log(pdf), so logsumexp takes over.
    for size in (150, 300):
        rng = np.random.default_rng(10)
        marginal = fit_kde(rng.normal(size=size))
        m, h = marginal.samples.size, marginal.bandwidth
        tail = marginal.samples.max() + h * np.linspace(37.0, 39.0, 2001)
        dens = marginal.pdf(tail)
        subnormal = tail[(dens > 0.0) & (dens < 1e-318)]
        assert subnormal.size
        x = np.concatenate([[-55.0, 0.0, 40.0, 1e4], subnormal])
        assert marginal.pdf(40.0) == 0.0
        got = marginal.log_pdf(x)
        assert np.all(np.isfinite(got))
        for value, xi in zip(got, x):
            t = (xi - marginal.samples) / h
            expected = logsumexp(-0.5 * t * t) - np.log(m * h * np.sqrt(2.0 * np.pi))
            np.testing.assert_allclose(value, expected, rtol=1e-12)


def test_non_finite_points():
    # NaN stays NaN; an infinite point has no kernel mass and clamped cdf.
    rng = np.random.default_rng(13)
    for size in (150, TALL):
        marginal = fit_kde(rng.normal(size=size))
        x = np.array([np.nan, -np.inf, np.inf])
        assert np.all(np.isnan([f(x)[0] for f in (marginal.pdf, marginal.cdf, marginal.log_pdf)]))
        np.testing.assert_array_equal(marginal.pdf(x[1:]), [0.0, 0.0])
        np.testing.assert_array_equal(marginal.cdf(x[1:]), [CDF_FLOOR, CDF_CEIL])
        np.testing.assert_array_equal(marginal.log_pdf(x[1:]), [-np.inf, -np.inf])


def test_huge_finite_points():
    # Far enough out, t = (x - s) / h or -t**2 / 2 overflows: the pdf is 0,
    # the cdf the clamp, with no warning, and a log density below
    # -finfo.max is an error that names the point.
    rng = np.random.default_rng(14)
    huge = np.array([1e155, 1e300, -1e308, 1e308, 1.7e308, -1.7e308])
    for size in (150, TALL):
        marginal = fit_kde(rng.normal(size=size))
        np.testing.assert_array_equal(marginal.pdf(huge), 0.0)
        np.testing.assert_array_equal(marginal.cdf(huge), np.where(huge > 0.0, CDF_CEIL, CDF_FLOOR))
        for point in huge:
            with pytest.raises(OutOfRangeError, match=re.escape(f"x={float(point)!r} ")):
                marginal.log_pdf(np.array([0.0, point]))
        assert -np.finfo(float).max < marginal.log_pdf(1e150) < -1e300


@pytest.mark.parametrize(
    "query",
    [0.3, np.array([]), np.linspace(-4.0, 4.0, 23), np.array([-60.0, -0.2, 45.0, 1e4, 2.5])],
    ids=["scalar", "empty", "ragged", "far"],
)
def test_kernel_blocks_do_not_change_results(monkeypatch, query):
    # Blocks split only along the query points, so every block size must
    # give bitwise the same pdf, cdf, log_pdf and quantile: one point per
    # block (a budget of 1 or 7 elements), a few points per block (a ragged
    # last block), and one block for all.  Every column's pdf, cdf and
    # log_pdf take the fast Gauss transform, whose table is built on first
    # use and cached, so each budget gets a fresh marginal.
    levels = np.linspace(0.05, 0.95, 7)
    for size in (150, 301, TALL):
        column = np.random.default_rng(11).gamma(2.0, 1.5, size=size)
        results = []
        for chunk in (1, 7, 7 * 301, 10**9):
            monkeypatch.setattr(marginals_module, "_CHUNK_ELEMENTS", chunk)
            marginal = fit_kde(column)
            assert marginal.pdf(45.0) == 0.0  # "far" takes the logsumexp branch
            results.append([np.asarray(f(query)) for f in (marginal.pdf, marginal.cdf, marginal.log_pdf)])
            results[-1].append(marginal.quantile(levels))
        monkeypatch.undo()
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        if np.ndim(query):
            assert np.all(np.isfinite(results[0][2]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["warped", "tied", "gapped", "cauchy"]),
    size=st.integers(2, TALL),
    seed=st.integers(0, 2**32 - 1),
    narrow=st.booleans(),
)
@example(kind="warped", size=2, seed=0, narrow=False)
@example(kind="cauchy", size=150, seed=0, narrow=True)
@example(kind="warped", size=TALL, seed=0, narrow=False)
@example(kind="tied", size=TALL, seed=1, narrow=True)
@example(kind="gapped", size=TALL, seed=2, narrow=True)
@example(kind="cauchy", size=TALL, seed=3, narrow=False)
# Boxes thousands of widths from the grid's origin, where a translation by
# the integer box offset instead of the rounded centres' offset is off by
# up to 7e-12 in the pdf.
@example(kind="cauchy", size=TALL, seed=1, narrow=True)
@example(kind="gapped", size=1000, seed=7, narrow=True)
def test_kernel_matches_the_dense_oracle(kind, size, seed, narrow):
    # Points in the bulk, in both tails 6-40 bandwidths out, and far outliers.
    # The log density is compared relative to max(1, |log pdf|): near
    # log pdf = 0 a relative bound on the log would ask for more than the
    # pdf's own rounding.
    rng = np.random.default_rng(seed)
    column = _column(kind, size, rng)
    assume(narrow or np.ptp(column) > 0.0)  # a few tied centres can all be equal
    marginal = KdeMarginal(column, 0.05) if narrow else fit_kde(column)
    h, lo, hi = marginal.bandwidth, column.min(), column.max()
    x = np.concatenate([
        rng.choice(column, 200) + h * rng.normal(0.0, 2.0, 200),
        lo - h * rng.uniform(6.0, 40.0, 40),
        hi + h * rng.uniform(6.0, 40.0, 40),
        [lo - 1e4 * h, hi + 1e4 * h, -1e6, 1e6],
    ])
    pdf, cdf, log_pdf = dense_kde(marginal, x)
    got_pdf, got_cdf, got_log = marginal.pdf(x), marginal.cdf(x), marginal.log_pdf(x)
    assert np.all(np.abs(got_cdf - cdf) <= 1e-14)
    assert np.all(np.abs(got_pdf - pdf) <= 1e-14)
    finite = np.isfinite(log_pdf)
    assert np.array_equal(np.isfinite(got_log), finite)
    assert np.all(np.abs(got_log - log_pdf)[finite] <= 1e-13 * np.maximum(np.abs(log_pdf[finite]), 1.0))
    assert np.all(got_pdf >= 0.0)
    assert np.all((CDF_FLOOR <= got_cdf) & (got_cdf <= CDF_CEIL))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["warped", "tied", "gapped", "cauchy"]),
    size=st.integers(2, TALL),
    seed=st.integers(0, 2**32 - 1),
    narrow=st.booleans(),
)
@example(kind="gapped", size=2, seed=0, narrow=True)
@example(kind="warped", size=150, seed=0, narrow=False)
@example(kind="gapped", size=TALL, seed=2, narrow=True)
@example(kind="cauchy", size=TALL, seed=1, narrow=True)  # boxes thousands of widths from the origin
def test_the_table_matches_the_translation_oracle(kind, size, seed, narrow):
    # The fixed offset matrices and their first-order term in the rounding
    # of the box centres give each target the coefficients that translating
    # every (target, source) pair at its own offset gives, within 1e-15 of
    # the largest box count.  A base also adds the count of centres left of
    # the target's reach, up to m, so it may differ in its last two bits.
    column = _column(kind, size, np.random.default_rng(seed))
    assume(narrow or np.ptp(column) > 0.0)
    marginal = KdeMarginal(column, 0.05) if narrow else fit_kde(column)
    largest, coef, base = translated_table(marginal)
    table = marginal._table
    got_largest, got_coef, got_base = table.largest[0], table.coef, table.base
    assert got_largest == largest and got_coef.shape == coef.shape
    assert np.all(np.abs(got_coef - coef) <= 1e-15 * largest)
    assert np.all(np.abs(got_base - base) <= 1e-15 * largest + 2.0 * np.spacing(base))


def _model_marginals():
    """Marginals of warped, tied, gapped and Cauchy columns of 2, 150 and
    2,000 centres, and one column near 1e8: one model's columns."""
    rng = np.random.default_rng(16)
    marginals = []
    for kind in ("warped", "tied", "gapped", "cauchy"):
        for size in (2, 150, 2000) if kind != "cauchy" else (2000, 150, 2):
            column = _column(kind, size, rng)
            narrow = size == 2 or kind == "cauchy"
            marginals.append(KdeMarginal(column, 0.05) if narrow else fit_kde(column))
    marginals.insert(6, fit_kde(1e8 + rng.standard_normal(300)))
    return marginals


def test_each_column_of_a_models_table_is_the_table_it_builds_alone():
    # The columns' keys are shifted apart, each column's source boxes fill
    # whole matrix-product blocks of their own, and each target sums its
    # pairs in the order it sums them alone: so each column, its target
    # boxes and its gaps, is bitwise its marginal's own table.
    marginals = _model_marginals()
    table = _Table(marginals)
    T = marginals_module._TRANSLATE
    first, last = table.offset - T, table.offset + table.top - 1.0  # each column's target keys
    assert np.all(first[1:] - last[:-1] > T + 1)
    in_column = (table.keys[:, None] >= first) & (table.keys[:, None] <= last)
    assert np.all(in_column.sum(axis=1) == 1)  # every box belongs to one column
    for c, marginal in enumerate(marginals):
        alone = marginal._table
        box = np.flatnonzero((table.keys >= first[c]) & (table.keys <= last[c]))
        cols = np.concatenate([box, table.keys.size + c + np.arange(box[0], box[-1] + 2)])
        pairs = [
            (table.keys[box] - table.offset[c], alone.keys),
            (table.centres[cols], alone.centres),
            (table.coef[:, :, cols], alone.coef),
            (table.base[cols], alone.base),
        ]
        pairs += [(getattr(table, name)[c], getattr(alone, name)[0])
                  for name in ("origin", "width", "top", "largest", "size", "scale")]
        for got, want in pairs:
            assert np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [marginals_module._CHUNK_ELEMENTS, 7 * marginals_module._HERMITE_TERMS])
def test_a_models_table_gives_each_marginals_bits(monkeypatch, chunk):
    # pdf, cdf and log_pdf through the model's table equal each marginal's
    # own calls bitwise: in the bulk, where the pdf hands over to the dense
    # kernel, where log_pdf takes logsumexp, at NaN and +-inf, and at a
    # point whose key, unclipped, would fall among the next column's boxes.
    monkeypatch.setattr(marginals_module, "_CHUNK_ELEMENTS", chunk)
    marginals = _model_marginals()
    table = _Table(marginals)
    rng = np.random.default_rng(17)
    points = []
    for m in marginals:
        h, lo, hi = m.bandwidth, m.samples.min(), m.samples.max()
        points.append(np.concatenate([
            rng.choice(m.samples, 50) + h * rng.normal(0.0, 2.0, 50),
            lo - h * rng.uniform(6.0, 40.0, 10),
            hi + h * rng.uniform(6.0, 40.0, 10),
            [lo - 1e4 * h, hi + 1e4 * h, np.nan, np.inf, -np.inf],
        ]))
    # Column c is a gapped column of 2,000 centres, and column c + 1 a
    # narrow Cauchy column thousands of keys wide.
    c = 9
    far = table.keys[table.keys > table.offset[c] + table.top[c] + 1e4 / np.sqrt(2.0)][0]
    assert far < table.offset[c + 2] - marginals_module._TRANSLATE  # a box of column c + 1
    point = table.origin[c] + (far - table.offset[c] + 0.5) * table.width[c]
    assert point > marginals[c].samples.max() + 1e4 * marginals[c].bandwidth
    assert np.floor((point - table.origin[c]) / table.width[c]) + table.offset[c] == far
    points[c] = np.append(points[c], point)
    col = np.repeat(np.arange(len(marginals)), [p.size for p in points])
    x = np.concatenate(points)
    order = rng.permutation(x.size)
    x, col = x[order], col[order]
    dens, cum = table.sums(x, col, pdf=True, cdf=True)
    cdf, log_pdf = table.cdf_and_log_pdf(x, col)
    assert np.any(dens == 0.0)  # the logsumexp branch
    assert np.any((dens > 0.0) & (dens < 1e-3 * table.largest[col] * table.scale[col] / table.size[col]))
    for c, m in enumerate(marginals):
        at = col == c
        assert dens[at].tobytes() == m.pdf(x[at]).tobytes()
        assert cum[at].tobytes() == cdf[at].tobytes() == m.cdf(x[at]).tobytes()
        assert log_pdf[at].tobytes() == m.log_pdf(x[at]).tobytes()
    # A log density below -finfo.max is the error the marginal raises alone.
    x, col = np.insert(x, 5, 1e300), np.insert(col, 5, 3)
    with pytest.raises(OutOfRangeError) as alone:
        marginals[3].log_pdf(1e300)
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(str(alone.value))}$"):
        table.cdf_and_log_pdf(x, col)


def test_a_models_quantile_gives_each_marginals_bits():
    # One Newton loop over every column's targets: each column's answers
    # are bitwise its marginal's quantile of the same targets.
    marginals = _model_marginals()
    u = np.random.default_rng(18).random((30, len(marginals)))
    u[0] = 1e-12
    x = _Table(marginals).quantile(u)
    assert x.shape == u.shape
    for c, m in enumerate(marginals):
        assert x[:, c].tobytes() == m.quantile(u[:, c]).tobytes()


_TABLE_DIGEST = """
import hashlib
import numpy as np
from copulabn.marginals import KdeMarginal, _Table, fit_kde
digest = hashlib.sha256()
def update(table):
    for part in (table.keys, table.centres, table.largest, table.coef, table.base):
        digest.update(part.tobytes())
mixed = []
for seed, kind in enumerate(["warped", "tied", "gapped", "cauchy"]):
    z = np.random.default_rng(seed).standard_normal(4000)
    column = {"warped": np.exp(z / 2.0) + 0.3 * z, "tied": np.round(z, 0),
              "gapped": np.where(z > 0.0, z + 200.0, z), "cauchy": np.tan(z)}[kind]
    for marginal in (fit_kde(column), KdeMarginal(column, 0.05)):
        update(marginal._table)
    mixed += [KdeMarginal(column, 0.05), KdeMarginal(column[:150], 0.05), KdeMarginal(column[:2], 0.05)]
update(_Table(mixed))
print(digest.hexdigest())
"""


def test_the_table_does_not_depend_on_the_thread_count():
    # Matrix products build the table; its bytes must not depend on how
    # many threads the BLAS splits a product over.  The narrow Cauchy-like
    # column has some 400 source boxes: one product over all of them would
    # be split.  So would one over a model's columns, here 12 of 2, 150 and
    # 4,000 centres in one table.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _TABLE_DIGEST], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("size", [200, 1000, TALL])
def test_a_point_in_no_box_has_the_count_of_centres_left_of_it(size):
    # Points in the middle of a narrow gapped column's gap lie more than
    # 8 box widths from every centre, so in no target box of the expansion.
    # Their cdf is the count of centres left of them, and the pdf there is
    # the dense kernel's.
    rng = np.random.default_rng(15)
    column = _column("gapped", size, rng)
    marginal = KdeMarginal(column, 0.05)
    s = np.sort(column)
    gap = int(np.argmax(np.diff(s)))
    x = s[gap] + (s[gap + 1] - s[gap]) * np.array([0.25, 0.5, 0.75])
    assert np.all(np.abs(x[:, None] - s).min(axis=1) > 8.0 * np.sqrt(2.0) * marginal.bandwidth)
    np.testing.assert_array_equal(marginal.cdf(x), (gap + 1.0) / size)
    np.testing.assert_array_equal(marginal._table.cdf_and_log_pdf(*_alone(x))[0], (gap + 1.0) / size)
    pdf, cdf, log_pdf = dense_kde(marginal, x)
    np.testing.assert_array_equal(cdf, (gap + 1.0) / size)
    assert marginal.pdf(x).tobytes() == pdf.tobytes()
    assert marginal.log_pdf(x).tobytes() == log_pdf.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    size=st.sampled_from([150, TALL]),
    seed=st.integers(0, 2**32 - 1),
    others=st.integers(0, 3000),
    reach=st.sampled_from([0.0, 3.0, 12.0, 60.0]),
)
def test_a_point_gets_the_same_bits_alone_or_in_any_batch(size, seed, others, reach):
    # The point lies in the bulk (reach 0), where the expansion holds, a few
    # bandwidths past the data, where the dense kernel takes over, or so far
    # out that the pdf underflows and log_pdf takes logsumexp.
    rng = np.random.default_rng(seed)
    column = _column("warped", size, rng)
    marginal = fit_kde(column)
    point = float(rng.choice(column) + reach * marginal.bandwidth * rng.choice([-1.0, 1.0]))
    if reach:
        point += np.sign(point - np.median(column)) * np.ptp(column)
    batch = rng.choice(column, others) + marginal.bandwidth * rng.normal(0.0, 10.0, others)
    at = int(rng.integers(0, others + 1))
    batch = np.insert(batch, at, point)
    for f in (marginal.pdf, marginal.cdf, marginal.log_pdf):
        assert np.float64(f(point)).tobytes() == f(batch)[at].tobytes()


def _handed_over(marginal, x):
    """Where the expansion's pdf at ``x`` hands over to the dense kernel."""
    expanded = marginal._table._expanded(*_alone(x), pdf=True, cdf=False)[0]
    return expanded < marginals_module._EXACT_BELOW * marginal._table.largest[0]


def test_the_dense_kernel_runs_only_where_the_expansion_hands_over(monkeypatch):
    # At every centre count the cdf never takes the dense kernel, and the
    # pdf and log_pdf take it only where the expansion hands over.  So does
    # quantile, for its table and its Newton steps, at 2 centres as at
    # thousands: it builds the expansion and inverts the public cdf.
    rng = np.random.default_rng(12)
    seen = []
    dense = KdeMarginal._kernel_columns

    def record(self, x):
        seen.append(x.copy())
        return dense(self, x)

    monkeypatch.setattr(KdeMarginal, "_kernel_columns", record)
    for size in (2, 20, 199, 200, TALL):
        column = _column("warped", size, rng)
        marginal = fit_kde(column)
        u = rng.random(20)
        x = marginal.quantile(u)
        assert "_table" in vars(marginal)
        assert all(np.all(_handed_over(marginal, points)) for points in seen)
        assert np.all(np.abs(marginal.cdf(x) - u) < marginals_module._QUANTILE_TOL)
        seen.clear()
        x = np.concatenate([np.linspace(marginal.support_lo, marginal.support_hi, 500), [-1e4, 1e4]])
        marginal.cdf(x)
        assert not seen
        marginal.pdf(x)
        assert np.array_equal(np.concatenate(seen), x[_handed_over(marginal, x)])
        assert 0 < seen[0].size < x.size / 2  # the grid's tails hand over, its bulk does not
        seen.clear()
        assert marginal.pdf(1e4) == 0.0  # log_pdf takes its logsumexp branch there
        assert np.all(np.isfinite(marginal.log_pdf(x)))
        assert all(np.all(_handed_over(marginal, points)) for points in seen)
        seen.clear()
        marginal._table.cdf_and_log_pdf(*_alone(x))  # one pass: the pdf hands over as alone, the cdf never
        assert np.array_equal(seen[0], x[_handed_over(marginal, x)])
        assert all(np.all(_handed_over(marginal, points)) for points in seen)
        seen.clear()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["warped", "tied", "gapped", "cauchy"]),
    size=st.integers(2, TALL),
    seed=st.integers(0, 2**32 - 1),
    narrow=st.booleans(),
)
@example(kind="warped", size=2, seed=0, narrow=False)
@example(kind="warped", size=TALL, seed=0, narrow=False)
@example(kind="cauchy", size=TALL, seed=3, narrow=True)
def test_the_hand_over_is_the_dense_kernel_bit_for_bit(kind, size, seed, narrow):
    # Where the expansion hands over, pdf and log_pdf equal bitwise the
    # dense kernel's, summed over every centre.
    rng = np.random.default_rng(seed)
    column = _column(kind, size, rng)
    assume(narrow or np.ptp(column) > 0.0)
    marginal = KdeMarginal(column, 0.05) if narrow else fit_kde(column)
    h, lo, hi = marginal.bandwidth, column.min(), column.max()
    x = np.concatenate([
        lo - h * rng.uniform(6.0, 40.0, 40),
        hi + h * rng.uniform(6.0, 40.0, 40),
        [lo - 1e4 * h, hi + 1e4 * h, -1e6, 1e6],
    ])
    x = x[_handed_over(marginal, x)]
    assert x.size
    got = [marginal.pdf(x), marginal.log_pdf(x)]
    pdf, _, log_pdf = dense_kde(marginal, x)
    for g, w in zip(got, [pdf, log_pdf]):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["warped", "tied", "gapped", "cauchy"]),
    size=st.integers(2, TALL),
    seed=st.integers(0, 2**32 - 1),
    narrow=st.booleans(),
    huge=st.sampled_from([1e300, -1e308, 1.7e308]),
)
@example(kind="tied", size=2, seed=0, narrow=True, huge=1e300)
@example(kind="warped", size=150, seed=0, narrow=False, huge=1.7e308)
@example(kind="warped", size=TALL, seed=0, narrow=False, huge=1e300)
@example(kind="cauchy", size=TALL, seed=3, narrow=True, huge=-1e308)
def test_one_pass_gives_the_bits_of_the_separate_calls(kind, size, seed, narrow, huge):
    # The bulk, both tails where the expansion hands over to the dense
    # kernel, outliers where log_pdf takes logsumexp, NaN and +-inf, in a
    # shuffled batch; then the same batch with a huge point, whose log
    # density is an error.
    rng = np.random.default_rng(seed)
    column = _column(kind, size, rng)
    assume(narrow or np.ptp(column) > 0.0)
    marginal = KdeMarginal(column, 0.05) if narrow else fit_kde(column)
    h, lo, hi = marginal.bandwidth, column.min(), column.max()
    x = np.concatenate([
        rng.choice(column, 200) + h * rng.normal(0.0, 2.0, 200),
        lo - h * rng.uniform(6.0, 40.0, 40),
        hi + h * rng.uniform(6.0, 40.0, 40),
        [lo - 1e4 * h, hi + 1e4 * h, -1e6, 1e6, np.nan, -np.inf, np.inf],
    ])
    rng.shuffle(x)
    assert np.any(marginal.pdf(x) == 0.0)  # some points take the logsumexp branch
    cdf, log_pdf = marginal._table.cdf_and_log_pdf(*_alone(x))
    assert cdf.tobytes() == marginal.cdf(x).tobytes()
    assert log_pdf.tobytes() == marginal.log_pdf(x).tobytes()
    x = np.insert(x, int(rng.integers(0, x.size + 1)), huge)
    with pytest.raises(OutOfRangeError) as alone:
        marginal.log_pdf(x)
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(str(alone.value))}$"):
        marginal._table.cdf_and_log_pdf(*_alone(x))
