"""Uniform-correlation Gaussian copula against dense linear-algebra oracles."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyroots
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, norm

from copulabn.copula import (
    FamilyStats,
    RHO_MARGIN,
    _second_moments,
    _stationarity_basis,
    conditional_z_params,
    copula_log_density,
    copula_log_density_rows,
    family_stats,
    fit_rho,
    ratio_log,
    ratio_log_from_z,
    rho_bounds,
    uniform_sigma_logdet,
)
from copulabn.errors import (
    InvalidInputError,
    InvalidRhoError,
    OutOfRangeError,
    TooFewRowsError,
)
from conftest import equicorrelated_scores, tensor_rule, unit_legendre_rule


def _sigma(n, rho):
    cov = np.full((n, n), float(rho))
    np.fill_diagonal(cov, 1.0)
    return cov


def _rho_grid(n):
    lo, hi = rho_bounds(n)
    return np.linspace(lo + 1e-6, hi - 1e-6, 9)


def test_logdet_matches_dense_lu_oracle():
    assert uniform_sigma_logdet(1, 0.7) == np.linalg.slogdet(np.eye(1))[1]
    for n in range(2, 7):
        for rho in _rho_grid(n):
            sign, ref = np.linalg.slogdet(_sigma(n, rho))
            assert sign == 1.0
            np.testing.assert_allclose(
                uniform_sigma_logdet(n, rho), ref, rtol=0, atol=1e-10
            )


def test_logdet_for_one_variable_ignores_rho():
    for rho in (-5.0, 0.0, 0.3, 99.0):
        assert uniform_sigma_logdet(1, rho) == 0.0


def test_quadratic_form_matches_dense_solve_oracle():
    # The density exponent uses the closed-form inverse of the
    # uniform-correlation matrix; checked here against np.linalg.solve.
    rng = np.random.default_rng(10)
    for n in range(2, 7):
        lo, hi = rho_bounds(n)
        moderate = np.linspace(lo + 0.05, hi - 0.05, 7)
        near_edge = [lo + 1e-6, hi - 1e-6]
        for rho, atol, rtol in [(r, 1e-10, 0) for r in moderate] + [
            # at the admissible edges the matrix condition number makes the
            # dense solve itself lose absolute digits, so compare relatively
            (r, 0, 1e-10)
            for r in near_edge
        ]:
            u = rng.uniform(0.05, 0.95, size=n)
            z = ndtri(u)
            got = copula_log_density(rho, u)
            quad = z @ np.linalg.solve(_sigma(n, rho), z)
            expected = -0.5 * uniform_sigma_logdet(n, rho) - 0.5 * (quad - z @ z)
            np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)


def test_density_matches_multivariate_normal_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        for rho in (-0.15, 0.0, 0.3, 0.8):
            u = rng.uniform(0.05, 0.95, size=n)
            z = ndtri(u)
            mvn = multivariate_normal(mean=np.zeros(n), cov=_sigma(n, rho))
            expected = mvn.logpdf(z) - norm.logpdf(z).sum()
            np.testing.assert_allclose(
                copula_log_density(rho, u), expected, rtol=0, atol=1e-10
            )


def test_independence_and_single_variable_are_exactly_flat():
    rng = np.random.default_rng(12)
    u = rng.uniform(0.01, 0.99, size=4)
    assert copula_log_density(0.0, u) == 0.0
    assert copula_log_density(0.0, u[:1]) == 0.0


def test_density_normalizes_over_unit_square():
    nodes, weights = unit_legendre_rule(64)
    grid, tensor_weights = tensor_rule(nodes, weights, 2)
    for rho in (-0.5, 0.0, 0.5, 0.9):
        values = np.exp(copula_log_density_rows(rho, grid))
        np.testing.assert_allclose(
            float(tensor_weights @ values), 1.0, rtol=0, atol=1e-3
        )


def test_rows_variant_matches_scalar_calls():
    rng = np.random.default_rng(13)
    u_rows = rng.uniform(0.02, 0.98, size=(20, 3))
    rows = copula_log_density_rows(0.45, u_rows)
    expected = [copula_log_density(0.45, u) for u in u_rows]
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)


# Every public entry point that checks rho, each called on points of a given
# dimension (uniform_sigma_logdet, which sees no points, is given it).
_RHO_ENTRY_POINTS = {
    "copula_log_density_rows":
        lambda dim, rho: copula_log_density_rows(rho, np.full((2, dim), 0.3)),
    "ratio_log": lambda dim, rho: ratio_log(rho, 0.3, np.full(dim - 1, 0.6)),
    "conditional_z_params": lambda dim, rho: conditional_z_params(rho, np.zeros(dim - 1)),
    "uniform_sigma_logdet": uniform_sigma_logdet,
}


def test_rho_validity_bounds():
    lo, hi = rho_bounds(3)
    assert lo == -0.5 + RHO_MARGIN
    assert hi == 1.0 - RHO_MARGIN
    for name, call in _RHO_ENTRY_POINTS.items():
        call(3, lo)
        call(3, hi)
        call(2, -0.6)
        for dim, rho in ((3, hi + 1e-9), (3, lo - 1e-9), (3, -0.6), (2, 1.5)):
            with pytest.raises(InvalidRhoError):
                call(dim, rho)
                pytest.fail(f"{name} accepted rho={rho} on {dim} columns")


@pytest.mark.parametrize("bad", ["0.5", None, True, False, np.bool_(True), 0.5j, [0.1]])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_rho_that_is_not_a_real_number_is_a_typed_error(bad, dim):
    for name, call in _RHO_ENTRY_POINTS.items():
        if dim == 1 and name == "uniform_sigma_logdet":
            continue  # a 1x1 correlation matrix ignores rho
        with pytest.raises(InvalidRhoError):
            call(dim, bad)
            pytest.fail(f"{name} accepted rho={bad!r} on {dim} columns")


def test_unit_cube_interior_is_required():
    for bad in ([0.0, 0.5], [0.5, 1.0], [0.5, np.nan], [-0.1, 0.5]):
        with pytest.raises(OutOfRangeError):
            copula_log_density(0.3, np.array(bad))


def test_malformed_points_are_a_typed_error_naming_their_shape():
    for bad in (np.array([0.3, 0.6]), np.empty((3, 0)), np.full((2, 2, 2), 0.5), np.array(0.5)):
        with pytest.raises(InvalidInputError, match=re.escape(f"got shape {bad.shape}")):
            copula_log_density_rows(0.3, bad)
    with pytest.raises(InvalidInputError, match=re.escape("got shape (1, 0)")):
        copula_log_density(0.3, [])


@pytest.mark.parametrize("bad", [np.zeros((2, 2, 2)), np.array(0.5)])
def test_row_functions_refuse_arrays_that_are_not_1d_or_2d(bad):
    for call in (conditional_z_params, ratio_log_from_z):
        with pytest.raises(InvalidInputError, match=re.escape(f"got shape {bad.shape}")):
            call(0.05, bad)


def test_ratio_log_matches_density_quotient():
    rng = np.random.default_rng(14)
    for k in (2, 3, 4):  # number of parents
        n = k + 1
        rho = 0.35
        u = rng.uniform(0.05, 0.95, size=n)
        expected = copula_log_density(rho, u) - copula_log_density(rho, u[1:])
        got = ratio_log(rho, u[0], u[1:])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_ratio_log_single_parent_is_full_density():
    rng = np.random.default_rng(15)
    u = rng.uniform(0.1, 0.9, size=2)
    np.testing.assert_allclose(
        ratio_log(-0.4, u[0], u[1:]),
        copula_log_density(-0.4, u),
        rtol=0,
        atol=0,
    )


def test_ratio_log_from_z_matches_u_space_entry_point():
    rng = np.random.default_rng(16)
    u_rows = rng.uniform(0.05, 0.95, size=(30, 3))
    z_rows = ndtri(u_rows)
    via_z = ratio_log_from_z(0.52, z_rows)
    via_u = np.array([ratio_log(0.52, u[0], u[1:]) for u in u_rows])
    np.testing.assert_allclose(via_z, via_u, rtol=0, atol=1e-12)


def test_conditional_params_match_schur_complement():
    rng = np.random.default_rng(17)
    for k in (1, 2, 4):
        n = k + 1
        for rho in (-0.2, 0.1, 0.6):
            lo, _ = rho_bounds(n)
            if rho <= lo:
                continue
            z_parents = rng.standard_normal(k)
            mean, var = conditional_z_params(rho, z_parents)
            cov = _sigma(n, rho)
            solve = np.linalg.solve(cov[1:, 1:], z_parents)
            expected_mean = cov[0, 1:] @ solve
            expected_var = cov[0, 0] - cov[0, 1:] @ np.linalg.solve(
                cov[1:, 1:], cov[1:, 0]
            )
            np.testing.assert_allclose(mean, expected_mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(var, expected_var, rtol=0, atol=1e-12)


def test_conditional_params_of_a_block_match_each_row():
    rng = np.random.default_rng(19)
    for k in (0, 1, 3):
        rho = 0.3 if k else 0.0
        block = rng.standard_normal((5, k))
        means, var = conditional_z_params(rho, block)
        assert means.shape == (5,)
        for row, mean in zip(block, means):
            assert conditional_z_params(rho, row) == (mean, var)


def test_conditional_density_identity():
    # log c_{k+1}(u) - log c_k(u_par) == log N(z_child; mean, var) - log N(z_child; 0, 1)
    rng = np.random.default_rng(18)
    rho = 0.55
    for k in (1, 2, 3):
        n = k + 1
        u = rng.uniform(0.05, 0.95, size=n)
        z = ndtri(u)
        mean, var = conditional_z_params(rho, z[1:])
        expected = norm.logpdf(z[0], loc=mean, scale=np.sqrt(var)) - norm.logpdf(z[0])
        np.testing.assert_allclose(
            ratio_log(rho, u[0], u[1:]), expected, rtol=0, atol=1e-12
        )


def _complete_stats(z_rows):
    return family_stats(z_rows.T @ z_rows, z_rows.shape[0], [range(z_rows.shape[1])])


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def _stat_bits(stats):
    return _bits(stats.fam_q, stats.fam_s_sq, stats.par_q, stats.par_s_sq)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    num_cols=st.integers(2, 6),
    dim=st.integers(2, 5),
    num_rows=st.integers(1, 60),
    hidden_share=st.floats(0.0, 0.7),
    all_hidden_rows=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_stats_objective_matches_row_sum(
    num_cols, dim, num_rows, hidden_share, all_hidden_rows, seed
):
    # Statistics read from the table's second-moment matrix against the
    # per-row bound terms, on a masked table with some rows wholly hidden.
    rng = np.random.default_rng(seed)
    dim = min(dim, num_cols)
    z = equicorrelated_scores(0.4, num_cols, num_rows, rng)
    observed = rng.random(z.shape) >= hidden_share
    observed[rng.integers(0, num_rows, all_hidden_rows)] = False
    z[~observed] = np.nan
    cols = tuple(int(c) for c in rng.permutation(num_cols)[:dim])
    second = _second_moments(z, observed)
    stats = family_stats(second, num_rows, [cols])
    lo, hi = rho_bounds(dim)
    for rho in (lo, -0.3 / (dim - 1), 0.0, 0.2, 0.7, hi):
        rows = ratio_log_from_z(rho, z[:, cols], observed[:, cols])
        np.testing.assert_allclose(stats.objective(rho), rows.sum(), rtol=1e-12)
    # Reading over sorted indices makes the statistics bitwise independent
    # of the parents' order, and a one-parent family's family block
    # independent of which member is the child.
    for perm in itertools.permutations(cols[1:]):
        assert _stat_bits(family_stats(second, num_rows, [(cols[0], *perm)])) == _stat_bits(stats)
    if dim == 2:
        reverse = family_stats(second, num_rows, [cols[::-1]])
        assert _bits(reverse.fam_q, reverse.fam_s_sq) == _bits(stats.fam_q, stats.fam_s_sq)
        assert _bits(*reverse.fit()) == _bits(*stats.fit())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 8),
    num_rows=st.integers(2, 200),
    hidden_share=st.floats(0.0, 0.6),
    end=st.sampled_from(["lo", "hi"]),
    gap=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_the_exact_maximum(dim, num_rows, hidden_share, end, gap, seed):
    rng = np.random.default_rng(seed)
    lo, hi = rho_bounds(dim)
    true_rho = lo + gap if end == "lo" else hi - gap
    z = equicorrelated_scores(true_rho, dim, num_rows, rng)
    observed = rng.random(z.shape) >= hidden_share
    stats = family_stats(_second_moments(z, observed), num_rows, [range(dim)])
    (rho,), (value,) = stats.fit()
    assert lo <= rho <= hi
    assert value == stats.objective(rho)[0]
    probes = np.concatenate([np.linspace(lo, hi, 2001), [0.0]])
    best_probe = stats.objective(probes).max()
    assert value >= best_probe - 1e-9 * (1.0 + abs(value))
    # An interior maximum is stationary.  The slope, times the distance to
    # the nearer end, is on the scale of num_rows wherever it is not zero.
    reach = min(rho - lo, hi - rho)
    if reach > 1e-3:
        h = 1e-4 * reach
        slope = (stats.objective(rho + h) - stats.objective(rho - h))[0] / (2.0 * h)
        assert abs(slope) * reach <= 1e-6 * (num_rows + abs(value))


def _polyroots_fit(stats):
    """The fit of a one-family ``FamilyStats`` with numpy's ``polyroots`` on
    its stationarity polynomial: the scalar oracle of the batched
    companion-matrix roots."""
    n = stats.dim
    lo, hi = rho_bounds(n)
    k = n - 1
    N, A, B, C, D = (float(np.ravel(x)[0]) for x in (
        stats.num_rows, stats.fam_q, stats.fam_s_sq, stats.par_q, stats.par_s_sq
    ))
    C, D = (C, D) if k >= 2 else (0.0, 0.0)
    weights = [
        N, -N * (n - 1), N * (k - 1),
        (C - D / k) - (A - B / n), B * (n - 1) / n, -D * (k - 1) / k,
    ]
    roots = polyroots(np.dot(weights, _stationarity_basis(n))).real
    candidates = [0.0, lo, hi, *roots[(lo < roots) & (roots < hi)]]
    values = [stats.objective(r)[0] for r in candidates]
    best = int(np.argmax(values))
    return float(candidates[best]), float(values[best])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    num_cols=st.integers(2, 4),
    dim=st.integers(2, 4),
    num_rows=st.integers(2, 10_000),
    hidden_share=st.floats(0.0, 0.6),
    duplicate=st.sampled_from([None, 1.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# n = 2: the stationarity polynomial's degree drops from 5 to 3.
@example(num_cols=2, dim=2, num_rows=2, hidden_share=0.0, duplicate=None, seed=0)
# A duplicated column puts rho at hi; a negated one at lo.
@example(num_cols=3, dim=2, num_rows=500, hidden_share=0.0, duplicate=1.0, seed=1)
@example(num_cols=2, dim=2, num_rows=500, hidden_share=0.0, duplicate=-1.0, seed=2)
def test_batched_fit_equals_the_single_family_fit(
    num_cols, dim, num_rows, hidden_share, duplicate, seed
):
    # Every family of up to dim columns of a random second-moment matrix:
    # the families of one size, children mixed as fit_missing batches them
    # (the search's one-child batches are a slice of these), read in one
    # gather and fitted in one batch, against each family's own one-family
    # family_stats(...).fit() and against polyroots, bitwise.
    rng = np.random.default_rng(seed)
    dim = min(dim, num_cols)
    z = rng.standard_normal((num_rows, num_cols)) @ rng.standard_normal((num_cols, num_cols))
    if duplicate is not None:
        z[:, 1] = duplicate * z[:, 0]
    observed = rng.random(z.shape) >= hidden_share
    second = _second_moments(z, observed)
    fitted = {}
    for size in range(1, dim):
        families = list(itertools.permutations(range(num_cols), size + 1))
        batch = family_stats(second, float(num_rows), families)
        rho, value = batch.fit()
        columns = (batch.fam_q, batch.fam_s_sq, batch.par_q, batch.par_s_sq)
        for i, family in enumerate(families):
            stats = family_stats(second, float(num_rows), [family])
            assert _stat_bits(stats) == _bits(*(column[i] for column in columns))
            fit = (rho[i], value[i])
            assert _bits(*stats.fit()) == _bits(*fit) == _bits(*_polyroots_fit(stats))
            fitted[family] = fit
    # A one-parent family and its reversal tie exactly.
    for child, parent in itertools.permutations(range(num_cols), 2):
        assert _bits(*fitted[child, parent]) == _bits(*fitted[parent, child])
    if duplicate is not None and observed.all():
        lo, hi = rho_bounds(2)
        assert fitted[1, 0][0] == (hi if duplicate > 0 else lo)


def test_fit_rho_recovers_generating_correlation():
    rng = np.random.default_rng(21)
    for true_rho, dim in ((0.6, 2), (0.4, 3), (-0.3, 4)):
        z = equicorrelated_scores(true_rho, dim, 4000, rng)
        u = ndtr(z)
        fitted = fit_rho(u)
        assert abs(fitted - true_rho) < 0.05


def test_fit_rho_needs_two_rows():
    with pytest.raises(TooFewRowsError):
        fit_rho(np.array([[0.5, 0.5]]))


def test_family_stats_fit_agrees_with_fit_rho():
    rng = np.random.default_rng(22)
    z = equicorrelated_scores(0.35, 3, 500, rng)
    u = ndtr(z)
    via_u = fit_rho(u)
    (via_stats,), _ = _complete_stats(ndtri(u)).fit()
    np.testing.assert_allclose(via_u, via_stats, rtol=0, atol=1e-12)


def test_family_stats_validates_construction():
    stats = FamilyStats(
        num_rows=10, dim=3, fam_q=np.array([30.0]), fam_s_sq=np.array([5.0]),
        par_q=np.array([20.0]), par_s_sq=np.array([3.0]),
    )
    assert np.isfinite(stats.objective(0.3)).all()
