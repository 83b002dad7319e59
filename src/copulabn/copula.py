"""Uniform-correlation Gaussian copula.

The local dependence model used by every family in the network: an
``n``-dimensional Gaussian copula whose correlation matrix has unit diagonal
and a single shared off-diagonal parameter ``rho``,

    Sigma = (1 - rho) * I + rho * J.

That structure gives closed forms for everything the package needs:

* ``log|Sigma| = (n-1) * log(1-rho) + log(1 + (n-1) * rho)``
* ``Sigma^-1 = (1/(1-rho)) * [I - (rho / (1 + (n-1) rho)) * J]``
* the copula log density reduces to an affine function of the normal-score
  statistics ``q = sum(z_i^2)`` and ``s = sum(z_i)``, which is what makes
  both the missing-data expectations and the maximum-likelihood objective
  cheap (see :class:`FamilyStats`);
* the maximum-likelihood rho of a family is a root of a polynomial of degree
  3 (two members) or 5 (more), or an end of the valid interval, so it is
  found exactly, with no search and no tolerance, for a batch of families of
  one size in one call (:meth:`FamilyStats.fit`), as the search and
  ``fit_missing`` both make it.

``rho`` is valid iff Sigma is positive definite, i.e. ``rho`` in
``(-1/(n-1), 1)``; we shrink that interval by a small margin at both ends so
Sigma stays numerically positive definite at every rho the fit scores.

A copula is its ``rho``: each function handed points reads ``n`` from them
and checks ``rho`` against it; only :func:`rho_bounds` and
:func:`uniform_sigma_logdet`, which see no points, take ``n``.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from ._normal import ndtri
from .errors import InvalidInputError, InvalidRhoError, OutOfRangeError, TooFewRowsError

__all__ = [
    "RHO_MARGIN",
    "rho_bounds",
    "uniform_sigma_logdet",
    "copula_log_density",
    "copula_log_density_rows",
    "ratio_log",
    "ratio_log_from_z",
    "conditional_z_params",
    "fit_rho",
    "FamilyStats",
    "family_stats",
]

# How far the usable rho interval stays away from the positive-definiteness
# boundary (-1/(n-1), 1).
RHO_MARGIN = 1e-4


def rho_bounds(n):
    """Open interval of usable correlations for dimension ``n >= 2``."""
    if n < 2:
        raise InvalidInputError(f"rho bounds need dimension >= 2, got {n}")
    return -1.0 / (n - 1) + RHO_MARGIN, 1.0 - RHO_MARGIN


def _check_rho(n, rho):
    # A boolean is a numbers.Real, but its dtype kind is "b".
    if not isinstance(rho, (numbers.Real, np.ndarray)) or np.asarray(rho).dtype.kind not in "iuf":
        raise InvalidRhoError(f"rho must be a real number, got {rho!r}")
    if n == 1:
        if rho != 0.0:
            raise InvalidRhoError("a 1-dimensional copula must have rho = 0")
        return
    lo, hi = rho_bounds(n)
    if not np.all(np.isfinite(rho) & (lo <= rho) & (rho <= hi)):
        raise InvalidRhoError(f"rho={rho!r} outside [{lo:.6g}, {hi:.6g}] for dimension {n}")


def uniform_sigma_logdet(n, rho):
    """log-determinant of ``(1-rho) I + rho J`` for dimension ``n``.

    Closed form: ``(n-1) log(1-rho) + log(1 + (n-1) rho)``.
    """
    if n < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {n}")
    if n == 1:
        # A 1x1 correlation matrix is just [1]; rho plays no role.
        return 0.0
    _check_rho(n, rho)
    return (n - 1) * np.log1p(-rho) + np.log1p((n - 1) * rho)


def _log_density_from_stats(n, rho, q, s_sq, rows=1.0):
    """Copula log density written in the statistics q = sum z^2 and
    s^2 = (sum z)^2: ``-0.5 * (rows * log|Sigma| + z' (Sigma^-1 - I) z)``.

    The quadratic form is ``(q - rho * s_sq / (1 + (n-1) rho)) / (1 - rho) - q``.
    Given per-row q and s^2 it returns per-row values; given their sums over
    ``rows`` rows it returns the summed log density.  Identically zero for
    ``n <= 1``, so a family without parents has a zero parent block.
    """
    if n <= 1:
        return np.zeros(np.shape(q))
    exponent = (q - rho * s_sq / (1.0 + (n - 1) * rho)) / (1.0 - rho) - q
    return -0.5 * (rows * uniform_sigma_logdet(n, rho) + exponent)


def _ratio_from_stats(n, rho, fam_q, fam_s_sq, par_q, par_s_sq, rows=1.0):
    """Log ratio of the family block's copula density to the parent block's,
    both at ``rho``, from each block's statistics (see
    :func:`_log_density_from_stats`)."""
    family = _log_density_from_stats(n, rho, fam_q, fam_s_sq, rows)
    return family - _log_density_from_stats(n - 1, rho, par_q, par_s_sq, rows)


def _scores(u):
    """Normal scores ndtri(u) of points strictly inside (0, 1): the one
    normal-score transform of the package.

    ndtri is ``copulabn._normal.ndtri``, Wichura's AS 241 in numpy (relative
    error below 1e-15).  It works elementwise, and each call has a fixed
    cost several times scipy's, so callers pass a whole table at once.
    """
    u = np.asarray(u, dtype=float)
    if u.size and (not np.all(np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0)):
        raise OutOfRangeError("u values must lie strictly inside (0, 1)")
    return ndtri(u)


def _rows(values):
    """``values`` as a 2-d float array, a 1-d one as its single row.

    Raises ``InvalidInputError`` naming the shape when ``values`` is not
    1-d or 2-d.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise InvalidInputError(f"expected one row or an (m, n) array of rows, got shape {arr.shape}")
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def copula_log_density(rho, u):
    """Log copula density at one point of the open unit cube.

    Parameters
    ----------
    rho : float inside ``rho_bounds(len(u))`` (0 for a single variable).
    u : sequence of reals, one per dimension, each strictly inside (0, 1).
    """
    return float(copula_log_density_rows(rho, np.asarray(u, dtype=float).reshape(1, -1))[0])


def copula_log_density_rows(rho, u_rows):
    """Vectorized :func:`copula_log_density` over the rows of an (m, n) array.

    Raises
    ------
    InvalidInputError
        ``u_rows`` is not a 2-d array with at least one column; the message
        names its shape.
    """
    u = np.asarray(u_rows, dtype=float)
    if u.ndim != 2 or u.shape[1] == 0:
        raise InvalidInputError(f"expected an (m, n) array of points with n >= 1, got shape {u.shape}")
    n = u.shape[1]
    _check_rho(n, rho)
    z = _scores(u)
    q = np.einsum("ij,ij->i", z, z)
    s = z.sum(axis=1)
    return _log_density_from_stats(n, rho, q, s * s)


def ratio_log_from_z(rho, z_block, obs_block=None):
    """Log ratio terms from normal scores, child column first.

    ``z_block`` has shape ``(m, n)``, or ``(n,)`` for one row, with the
    child's score in column 0 and parents after it, and ``rho`` lies inside
    ``rho_bounds(n)``.  Returns the per-row log of (family copula density /
    parent-block copula density), both with the same ``rho``.  Zero when
    there are no parents.

    ``obs_block`` marks the observed cells (None: every cell is observed).
    Each hidden cell's score is integrated out as an independent standard
    normal and its entry in ``z_block`` is ignored: the log ratio is affine
    in q and s^2, so its expectation is the ratio at their expected values.
    On a fully observed row the term is the exact ratio.

    Raises
    ------
    InvalidInputError
        ``z_block`` is neither 1-d nor 2-d; the message names its shape.
    """
    z = _rows(z_block)
    n = z.shape[1]
    _check_rho(n, rho)
    if obs_block is None:
        obs_block = np.ones(z.shape, dtype=bool)
    obs = np.asarray(obs_block, dtype=bool).reshape(z.shape)
    fam, par = _block_moments(z, obs), _block_moments(z[:, 1:], obs[:, 1:])
    return _ratio_from_stats(n, rho, *fam, *par)


def ratio_log(rho, u_child, u_parents):
    """Log of the family's density ratio term at one point.

    The term is the family copula density over (child, parents) divided by
    the copula density of the parent block alone, both sharing the family's
    ``rho``; it plays the role of a conditional density factor.  Families
    with no parents contribute exactly 0.

    Parameters
    ----------
    rho : float
        The family's correlation, inside ``rho_bounds(1 + len(u_parents))``.
    u_child : real in (0, 1)
    u_parents : sequence of reals in (0, 1)
    """
    row = np.concatenate(([float(u_child)], np.asarray(u_parents, dtype=float).reshape(-1)))
    return float(ratio_log_from_z(rho, _scores(row))[0])


def conditional_z_params(rho, z_parents):
    """Mean and variance of the child's normal score given parents' scores.

    Standard Gaussian conditioning under the uniform-correlation matrix:
    ``mean = rho * sum(z_parents) / (1 + (k-1) rho)`` and
    ``variance = 1 - k * rho**2 / (1 + (k-1) rho)`` for ``k`` parents.
    ``z_parents`` is one row of k scores, giving a float mean, or a
    (rows, k) block, giving one mean per row; the variance is a float.
    ``rho`` must lie inside ``rho_bounds(k + 1)``.  Any other shape raises
    ``InvalidInputError`` naming it.
    """
    block = np.ndim(z_parents) == 2
    z = _rows(z_parents)
    k = z.shape[1]
    _check_rho(k + 1, rho)
    denom = 1.0 + (k - 1) * rho
    mean = rho * z.sum(axis=1) / denom
    variance = 1.0 - k * rho * rho / denom
    return (mean if block else float(mean[0])), float(variance)


@dataclass(frozen=True, eq=False)
class FamilyStats:
    """Sufficient statistics of the rho objectives of F families of one dimension.

    A family's log-density ratio summed over rows is affine in
    ``A = sum_rows q`` and ``B = sum_rows s^2`` and in their parent-block
    analogues ``C`` and ``D`` (:func:`family_stats` reads all four from a
    second-moment matrix), so ``objective(rho)`` costs O(1) per family and
    each maximizer is a root of a polynomial whose degree the dimension fixes
    (see :meth:`fit`).

    Attributes
    ----------
    num_rows : float or (F,) array
        Total row weight (plain row count when nothing is hidden).
    dim : int
        Family dimension (child + parents).
    fam_q, fam_s_sq : (F,) arrays
        Sums over rows of (expected) q and s^2 for the full family block.
    par_q, par_s_sq : (F,) arrays
        Same for the parent block.
    """

    num_rows: object
    dim: int
    fam_q: np.ndarray
    fam_s_sq: np.ndarray
    par_q: np.ndarray
    par_s_sq: np.ndarray

    def objective(self, rho):
        """(F,) sums over rows of (expected) family log ratio terms at ``rho``."""
        return _ratio_from_stats(
            self.dim, rho, self.fam_q, self.fam_s_sq, self.par_q, self.par_s_sq, self.num_rows
        )

    def fit(self):
        """(F,) arrays: each family's rho maximizing :meth:`objective` on
        :func:`rho_bounds`, and the objective value there.

        With ``n = dim``, ``k = n - 1`` parents, ``N = num_rows`` and
        ``A, B, C, D = fam_q, fam_s_sq, par_q, par_s_sq``, the derivative is

            2 f'(rho) = N / (1-rho) - N (n-1) / (1 + (n-1) rho)
                        + N (k-1) / (1 + (k-1) rho)
                        - [(A - B/n) - (C - D/k)] / (1-rho)^2
                        + B (n-1) / (n (1 + (n-1) rho)^2)
                        - D (k-1) / (k (1 + (k-1) rho)^2),

        without the C and D terms when ``k == 1``, as in :meth:`objective`.
        Times ``(1-rho)^2 (1+(n-1) rho)^2 (1+(k-1) rho)^2`` it is a polynomial:
        each family's weight row times ``_stationarity_basis(n)``, multiplied
        row by row as a stacked vector-matrix product.  The dimension alone
        fixes its degree: 3 at ``n == 2``, where the ``k - 1`` terms vanish,
        with leading coefficient ``-2 N``; and 5 for ``n >= 3``, with leading
        coefficient ``-N (n-1)^2 (n-2)^2``.  Every caller has ``N >= 1``, so
        neither is 0, and the roots are the sorted eigenvalues of one stack of
        companion matrices of that degree, in one ``eigvals`` call.  The real
        part of every root inside the interval is scored (a real root may come
        back with a tiny imaginary part), as are both ends and rho = 0, and the
        first best candidate wins, in the order 0, lo, hi, then the roots in
        ascending order; so a fit never scores below independence.
        """
        n = self.dim
        lo, hi = rho_bounds(n)
        k = n - 1
        A, B = self.fam_q, self.fam_s_sq
        N = np.asarray(self.num_rows, dtype=float)
        C, D = (self.par_q, self.par_s_sq) if k >= 2 else (0.0, 0.0)
        weights = np.empty((A.size, 6))
        weights[:, 0], weights[:, 1], weights[:, 2] = N, -N * (n - 1), N * (k - 1)
        weights[:, 3] = (C - D / k) - (A - B / n)
        weights[:, 4] = B * (n - 1) / n
        weights[:, 5] = -D * (k - 1) / k
        d = 3 if n == 2 else 5
        coef = np.matmul(weights[:, None, :], _stationarity_basis(n))[:, 0, : d + 1]
        # Companion matrices as numpy's polycompanion builds them, unrotated:
        # the matrix polyroots solves in numpy >= 2.4, the floor in
        # pyproject.toml.  numpy 1.x's polyroots solved it rotated, which
        # moves roots by ulps.
        companion = np.zeros((A.size, d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] -= coef[:, :-1] / coef[:, -1:]
        roots = np.sort(np.linalg.eigvals(companion), axis=1).real
        inside = (lo < roots) & (roots < hi)
        # Candidates per family: 0, lo, hi, then the roots inside the interval.
        candidates = np.zeros((A.size, 3 + d))
        candidates[:, 1:3] = lo, hi
        candidates[:, 3:] = np.where(inside, roots, 0.0)
        values = _ratio_from_stats(
            n, candidates, A[:, None], B[:, None], self.par_q[:, None], self.par_s_sq[:, None],
            N[..., None],
        )
        values[:, 3:][~inside] = -np.inf
        best = np.argmax(values, axis=1)
        pick = np.arange(A.size)
        return candidates[pick, best], values[pick, best]


@lru_cache(maxsize=None)
def _stationarity_basis(n):
    """The six products that :meth:`FamilyStats.fit` weights into its
    stationarity polynomial, as rows of coefficients, lowest degree first.

    With ``a = 1 - rho``, ``b = 1 + (n-1) rho`` and ``c = 1 + (n-2) rho`` they
    are ``a b^2 c^2, a^2 b c^2, a^2 b^2 c, b^2 c^2, a^2 c^2, a^2 b^2``.
    """
    a, b, c = Polynomial([1.0, -1.0]), Polynomial([1.0, n - 1.0]), Polynomial([1.0, n - 2.0])
    products = (
        a * b**2 * c**2, a**2 * b * c**2, a**2 * b**2 * c,
        b**2 * c**2, a**2 * c**2, a**2 * b**2,
    )
    basis = np.array([np.pad(p.coef, (0, 6 - p.coef.size)) for p in products])
    basis.setflags(write=False)
    return basis


def _block_moments(z_block, obs_block):
    """Per-row expected q = sum z^2 and s^2 = (sum z)^2, each hidden cell's
    score integrated out as an independent standard normal."""
    zz = np.where(obs_block, z_block, 0.0)
    q_obs = (zz * zz).sum(axis=1)
    s_obs = zz.sum(axis=1)
    t = (~obs_block).sum(axis=1).astype(float)
    return q_obs + t, s_obs * s_obs + t


def _second_moments(z, observed):
    """The likelihood bound's S = Z0'Z0 + diag(t), the sum over rows of
    E[z z'] with each hidden score an independent standard normal: Z0 is
    ``z`` with hidden cells set to 0 and t counts each column's hidden cells."""
    z0 = np.where(observed, z, 0.0)
    return z0.T @ z0 + np.diag((~observed).sum(axis=0).astype(float))


def family_stats(second, num_rows, families):
    """:class:`FamilyStats` of F families of one dimension over ``num_rows``
    rows (a scalar, or one count per family), read from a second-moment
    matrix (``Z'Z`` of complete scores, or :func:`_second_moments`) shared by
    all, or from an (F, m, m) stack of them, one per family.

    ``families`` is an (F, k+1) array-like of column indices of ``second``,
    each row child first.  Each block is read in one gather: its summed q is
    its trace and its summed s^2 its total.  Blocks are read over sorted
    indices, so the parents' order changes no bit, and a one-parent family
    and its reversal share their family block.
    """
    families = np.asarray(families, dtype=np.intp)
    second = np.broadcast_to(second, (len(families), *second.shape[-2:]))
    which = np.arange(len(families))[:, None, None]
    stats = []
    for idx in (np.sort(families, axis=1), np.sort(families[:, 1:], axis=1)):
        blocks = second[which, idx[:, :, None], idx[:, None, :]]
        stats += [np.trace(blocks, axis1=1, axis2=2), blocks.sum(axis=(1, 2))]
    return FamilyStats(num_rows, families.shape[1], *stats)


def fit_rho(family_u_rows):
    """Maximum-likelihood rho for one family from unit-cube rows.

    Parameters
    ----------
    family_u_rows : array_like of shape (m, k+1)
        One row per instance: child's u value first, then the parents'.
        All values strictly inside (0, 1).

    Returns
    -------
    float
        The rho maximizing the summed log ratio terms over the valid
        interval, found exactly by :meth:`FamilyStats.fit`.

    Raises
    ------
    TooFewRowsError
        Fewer than two rows.
    """
    u = np.asarray(family_u_rows, dtype=float)
    if u.ndim != 2:
        raise InvalidInputError("family rows must form a 2-d array")
    if u.shape[0] < 2:
        raise TooFewRowsError(f"need at least 2 rows to fit rho, got {u.shape[0]}")
    if u.shape[1] < 2:
        raise InvalidInputError("a family needs at least one parent to have a rho")
    z = _scores(u)
    rho, _ = family_stats(z.T @ z, float(u.shape[0]), [range(u.shape[1])]).fit()
    return float(rho[0])
