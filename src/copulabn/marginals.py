"""Univariate kernel density marginals.

Each variable gets a Gaussian-kernel density estimate fit to its observed
values.  The estimate provides three callables used everywhere else in the
package:

* ``pdf`` for the marginal density term of the joint log density,
* ``cdf`` for mapping data to the unit interval (probability integral
  transform) before any copula computation,
* ``quantile`` for mapping unit-interval draws back to the data scale when
  sampling.

The cdf is clamped away from 0 and 1 so its normal score is always finite;
the clamp bounds double as the reachable range of ``quantile``.  The
quantile inverts the cdf with safeguarded Newton steps (the pdf is the cdf's
derivative) inside a bracket read off a cdf table of n + 1 points for n
targets.  ``log_pdf`` stays finite beyond the support, where the summed
density underflows to 0, down to a log density of -``np.finfo(float).max``.

Kernel sums
-----------
With m centres s and bandwidth h, ``pdf(x) = sum exp(-t**2 / 2) / (m h sqrt(2 pi))``
and ``cdf(x) = sum ndtr(t) / m``, with t = (x - s) / h and ndtr the standard
normal cdf of ``copulabn._normal`` (numpy alone: a Taylor table with a node
every 1/256 on [-9, 9], 0 or 1 beyond).  ``pdf``, ``cdf`` and
``log_pdf`` take both sums from a fast Gauss transform (Greengard & Strain
1991; Yang, Duraiswami & Gumerov 2003) at every centre count; the dense
kernel, one exp or ndtr per (point, centre) pair, is kept for the hand-over
below and for ``quantile`` below ``_FGT_MIN_CENTRES`` centres:

* Moments.  The sorted centres fall into source boxes w = h sqrt(2) wide.
  For a box centred at c, with u = (x - c) / w and d = (s - c) / w in
  [-1/2, 1/2], ``exp(-t**2 / 2) = exp(-(u - d)**2) = sum_a d**a / a! h_a(u)``
  and ``ndtr(t) = erfc(d - u) / 2 = erfc(-u) / 2 - pi**-0.5 sum_{a>=1} d**a / a! h_(a-1)(u)``,
  where h_a(u) = H_a(u) exp(-u**2) are the Hermite functions.  So a box is
  its count and its moments A_a = sum d**a / a!.
* Translation.  Target boxes lie on the same grid.  Since h_a' = -h_(a+1),
  at a point x = t + v w of the target box centred at t, the Hermite
  expansion of each source box is a Taylor series in v about
  Delta = (t - c) / w, the offset of the rounded centres, and the box's
  kernel sum is ``sum_b L_b v**b`` with
  ``L_b = (-1)**b / b! sum_a A_a h_(a+b)(Delta)``.  The table holds, per
  target box, the coefficients L_b summed over its sources, and the
  kernel-cdf sum at t from the expansion above.  Since the kernel-cdf sum
  grows at pi**-0.5 times the kernel sum per unit of v, a point costs one
  gather of its box's column and two Horner passes:
  ``pdf = sum_b L_b v**b`` and ``cdf = cum(t) + pi**-0.5 sum_b L_b v**(b+1) / (b+1)``.
  The rounded centres lie Delta = j + eps widths apart, j = -7...7 keys
  and eps their rounding, so a source's share is two fixed matrices, built
  at import for the 15 offsets, applied to its moments:
  ``h_(a+b)(j + eps) = h_(a+b)(j) - eps h_(a+b+1)(j)``, and the cdf at t
  likewise from erfc(-j) / 2, h_(a-1)(j) and ``eps pi**-0.5 sum_a A_a h_a(j)``.
  The eps term matters far from the grid's origin, where eps reaches 1e-11.
  The table is built once per marginal and cached.  Scoring a column
  (``cbn``) and each Newton step of ``quantile`` ask for both sums in one
  pass; a call for one sum skips the other's Horner pass.  On the dense
  kernel one block of t per chunk of points feeds both sums the same way.
* Truncation.  By Cramer's inequality,
  ``|h_a(u)| <= K 2**(a/2) sqrt(a!) exp(-u**2 / 2)`` with K = 1.086435, so
  the terms a >= P of one centre add at most ``K sum_{a>=P} 2**(-a/2) / sqrt(a!)``
  of a kernel's peak.  ``_HERMITE_TERMS`` is the smallest P for which that is
  at most 2**-53: P = 25.  The same bound holds for the Taylor series of one
  centre's kernel in v, with |v| <= 1/2, so each table column keeps 25
  coefficients too.
* Reach.  A box whose centre lies more than ``_REACH`` = 1/2 + sqrt(53 log 2),
  about 6.56 widths, from x holds only centres whose kernel there is below
  2**-53 of its peak.  A point of a target box lies within _REACH of a
  source box only if their keys differ by at most ``_TRANSLATE`` = 7, so a
  target adds up to 15 sources, and only boxes within 7 keys of an
  occupied one are targets.  Sources further left add their count to the
  cdf at t.  A point in no target box gets a kernel sum of 0 and, as its
  kernel-cdf sum, the count of centres left of it.
* Hand-over.  The expansion's error is small against the peak, not
  against a small pdf: in a far tail its relative error reaches 1.  So
  where the expanded kernel sum falls below ``_EXACT_BELOW`` = 1e-3 of the
  largest box count (0.36 to 1.3 times the sum's peak), the pdf is summed
  again over every centre.  Against the dense kernel on warped, tied,
  gapped and Cauchy columns of 2 to 4,000 centres, the expanded kernel
  sum's relative error measured at most 1.7e-14 above that fraction and
  5.2e-14 between 1e-4 and 1e-3 of the largest count.  The cdf keeps its
  expansion everywhere: its error, at most 8e-16 in the same runs, is small
  against ``CDF_FLOOR``.
* Crossover.  A table build costs 0.18 to 0.47 ms from 20 to 4,000 centres
  on a 2-core VM, and then a point costs a fixed 2 x 25 terms, against the
  dense kernel's m.  Scoring reads whole columns, so it always expands.  ``quantile``
  below ``_FGT_MIN_CENTRES`` = 200 centres keeps the dense kernel, for its
  bracket table and its Newton steps: a ``sample`` command builds its
  marginals afresh and draws a few points per column (20 rows of 40
  columns on the wide-missing benchmark), where a table would cost more
  than the sums it saves.  That quantile inverts the dense cdf, which
  differs from the public ``cdf`` by ulps, so ``cdf(quantile(u))`` stays
  within ``_QUANTILE_TOL`` of u.  Its ndtr, one gather and one 7-term Horner
  pass per (point, centre) pair, costs about what scipy's did per pair but
  10 to 20 us more per call, and its absolute error, below 1.2e-19, is
  small against ``CDF_FLOOR``.

Huge points.  A finite point some 1e154 bandwidths or more from a centre
overflows t, or -t**2 / 2, to infinity.  The sums read that as an infinitely
far centre: its kernel adds 0 to the pdf and 0 or 1 to the cdf, without a
warning.  Where every term of a point's log-density sum overflows, its log
density lies below -``np.finfo(float).max`` and ``log_pdf`` raises
``OutOfRangeError``.

Every sum runs in a fixed order per point: over b by Horner's rule, on a
table built once per marginal in a fixed order, whatever the thread count.
So a point's pdf, cdf and log_pdf are bitwise the same whether it is
evaluated alone or in any batch, for any ``_CHUNK_ELEMENTS``, and whether
its cdf and log_pdf come from one pass or from two calls.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._normal import logsumexp, ndtr
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    EmptyInputError,
    InvalidInputError,
    OutOfRangeError,
)

__all__ = ["KdeMarginal", "fit_kde", "CDF_FLOOR", "CDF_CEIL"]

# Smallest / largest value the clamped cdf can return.  Keeps normal scores
# inside +/- ndtri(1 - 1e-6) ~= 4.7534 (``copulabn._normal.ndtri``, Wichura's
# AS 241 in numpy) so downstream copula terms stay finite.
CDF_FLOOR = 1e-6
CDF_CEIL = 1.0 - 1e-6

# Kernel mass beyond 5 bandwidths is ~2.9e-7 per side, so [min - 5h, max + 5h]
# carries all but ~6e-7 of the total probability.
_SUPPORT_PAD = 5.0

# Element budget per kernel-matrix block (points x centers): 64K doubles, 512 KB,
# so a block stays in cache from the difference to the row mean.  Blocks split
# only along the points, so every output is bitwise the same for any budget.
_CHUNK_ELEMENTS = 65_536

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)
_SQRT2 = np.sqrt(2.0)
_UNIT_ROUNDOFF = 2.0**-53
_TINY = np.finfo(float).tiny

# Fast Gauss transform constants, derived in the module docstring.  Cramer's
# inequality: |h_a(u)| <= _CRAMER_K 2**(a/2) sqrt(a!) exp(-u**2 / 2).
_CRAMER_K = 1.086435


def _hermite_terms():
    # Smallest P with _CRAMER_K * sum_{a>=P} 2**(-a/2) / sqrt(a!) <= 2**-53;
    # the sum's terms fall faster than 2**-a, so 40 of them suffice.
    def tail(p):
        return _CRAMER_K * math.fsum(2.0 ** (-a / 2) / math.sqrt(math.factorial(a)) for a in range(p, p + 40))

    p = 1
    while tail(p) > _UNIT_ROUNDOFF:
        p += 1
    return p


_HERMITE_TERMS = _hermite_terms()
_INV_FACTORIAL = 1.0 / np.array([math.factorial(a) for a in range(_HERMITE_TERMS)], dtype=float)
# Source boxes per matrix product of the table build: 15 x 26 x 25 x 16
# multiply-adds stay below the size at which OpenBLAS splits a product over
# threads (4 x 65,536), so the table's bits do not depend on the thread count.
_BLAS_COLUMNS = 16
_REACH = 0.5 + math.sqrt(-math.log(_UNIT_ROUNDOFF))
_TRANSLATE = int(_REACH + 0.5)
_EXACT_BELOW = 1e-3
_FGT_MIN_CENTRES = 200

# KdeMarginal.quantile stops each target once |cdf(x) - u| < _QUANTILE_TOL, or
# once no float lies strictly inside its bracket, and
# raises ConvergenceError after _QUANTILE_MAX_ITER Newton iterations.
_QUANTILE_TOL = 1e-10
_QUANTILE_MAX_ITER = 200


def _offset_matrices():
    # For a target box j = -_TRANSLATE, ..., _TRANSLATE keys right of a
    # source box, block j of `shares` maps the source's moments A_a to its
    # share of the target's table: rows b < P give (-1)**b / b! h_(a+b)(j),
    # whose products are the coefficients L_b, and row P the kernel-cdf sum
    # at the target's centre, erfc(-j) / 2 (from math.erfc) for a = 0 and
    # -pi**-0.5 h_(a-1)(j) after.  Block j of `slopes` is its derivative in
    # the offset, since h_n' = -h_(n+1).  h_n comes from
    # h_n = 2j h_(n-1) - 2(n-1) h_(n-2).
    j = np.arange(-_TRANSLATE, _TRANSLATE + 1.0)
    herm = np.empty((2 * _HERMITE_TERMS, j.size))
    herm[0] = np.exp(-j * j)
    herm[1] = 2.0 * j * herm[0]
    for n in range(2, herm.shape[0]):
        herm[n] = 2.0 * j * herm[n - 1] - (2.0 * (n - 1)) * herm[n - 2]
    a = np.arange(_HERMITE_TERMS)
    sign = (_INV_FACTORIAL * (-1.0) ** a)[:, None, None]  # (-1)**b / b!, rows b
    shares = np.empty((j.size, _HERMITE_TERMS + 1, _HERMITE_TERMS))
    slopes = np.empty_like(shares)
    shares[:, :-1] = (sign * herm[a[:, None] + a]).transpose(2, 0, 1)
    slopes[:, :-1] = (-sign * herm[a[:, None] + a + 1]).transpose(2, 0, 1)
    shares[:, -1, 0] = [0.5 * math.erfc(-k) for k in j.tolist()]
    shares[:, -1, 1:] = -_INV_SQRT_PI * herm[: _HERMITE_TERMS - 1].T
    slopes[:, -1] = _INV_SQRT_PI * herm[:_HERMITE_TERMS].T
    return j, shares.reshape(-1, _HERMITE_TERMS), slopes.reshape(-1, _HERMITE_TERMS)


_OFFSETS, _SHARES, _SLOPES = _offset_matrices()


def _horner(coef, v):
    """``sum_b coef[b] v**b`` by Horner's rule, from the last row b down."""
    total = coef[-1] * v
    for row in coef[-2:0:-1]:
        total += row
        total *= v
    total += coef[0]
    return total


@dataclass(frozen=True, eq=False)
class KdeMarginal:
    """Gaussian kernel density estimate of one variable.

    The constructor checks its arguments and keeps a read-only float copy
    of the samples, so every marginal is valid and a caller who later
    changes its own array changes nothing here.

    Attributes
    ----------
    samples : ndarray
        The kernel centres, read-only: any array_like of finite values,
        flattened to 1-d.
    bandwidth : float
        Common kernel standard deviation, a positive real.

    Raises
    ------
    EmptyInputError
        No samples.
    InvalidInputError
        A sample is not finite.
    OutOfRangeError
        The bandwidth is not a positive real.
    """

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float).reshape(-1)
        if samples.size == 0:
            raise EmptyInputError("no samples")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("samples contain non-finite values")
        bandwidth = float(self.bandwidth)
        if not np.isfinite(bandwidth) or bandwidth <= 0.0:
            raise OutOfRangeError(f"bandwidth must be a positive real, got {bandwidth!r}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "bandwidth", bandwidth)

    @cached_property
    def support_lo(self):
        """``min(samples) - 5 bandwidth``: the density's support starts here."""
        return float(self.samples.min() - _SUPPORT_PAD * self.bandwidth)

    @cached_property
    def support_hi(self):
        """``max(samples) + 5 bandwidth``: the density's support ends here."""
        return float(self.samples.max() + _SUPPORT_PAD * self.bandwidth)

    def _kernel_columns(self, x):
        """Yield (slice, standardized differences) over 1-d ``x`` in bounded chunks."""
        step = max(1, _CHUNK_ELEMENTS // self.samples.size)
        for start in range(0, x.size, step):
            chunk = x[start : start + step]
            yield slice(start, start + chunk.size), (chunk[:, None] - self.samples[None, :]) / self.bandwidth

    @cached_property
    def _boxes(self):
        # The sorted centres fall into source boxes w = h sqrt(2) wide, keyed
        # k = floor((s - s_0) / w) and centred at s_0 + (k + 1/2) w; each
        # source box adds its share to the target boxes, on the same grid,
        # within _TRANSLATE keys.  Returns (origin s_0, target keys, target
        # centres, largest box count, coef, base), one column per target box:
        # coef[0] holds the Taylor coefficients L_b of the kernel sum in rows
        # b, coef[1] the kernel-cdf sum's pi**-0.5 L_b / (b + 1), and base the
        # kernel-cdf sum at the target's centre.  Gap column j, after the
        # last target box, has zero coefficients and, as its base, the count
        # of centres left of the gap before target box j (past the last box).
        s = np.sort(self.samples)
        width = self.bandwidth * _SQRT2
        key = np.floor((s - s[0]) / width)
        starts = np.flatnonzero(np.diff(key, prepend=-1.0))
        counts = np.diff(starts, append=s.size)
        source = key[starts]
        origins = s[0] + (source + 0.5) * width
        power = np.empty((_HERMITE_TERMS, s.size))  # d**a in rows a
        power[0] = 1.0
        power[1] = (s - np.repeat(origins, counts)) / width
        for a in range(2, _HERMITE_TERMS):
            np.multiply(power[a - 1], power[1], out=power[a])
        n = source.size
        moments = np.zeros((-(-n // _BLAS_COLUMNS) * _BLAS_COLUMNS, _HERMITE_TERMS))  # zero boxes pad a block
        moments[:n] = (np.add.reduceat(power, starts, axis=1) * _INV_FACTORIAL[:, None]).T
        keys = np.unique(source[:, None] + _OFFSETS)
        centres = s[0] + (keys + 0.5) * width
        # The rounded centres lie j + eps widths apart, eps of the order of
        # their rounding: each (source, offset) pair's share is its block at
        # j plus eps times the block's slope.  Each target sums its pairs,
        # sorted by target, and then its base adds the count of centres left
        # of its reach.
        target = np.searchsorted(keys, source[:, None] + _OFFSETS).ravel()
        eps = ((centres[target] - np.repeat(origins, _OFFSETS.size)) / width - np.tile(_OFFSETS, n))[:, None]
        blocks = moments.reshape(-1, _BLAS_COLUMNS, _HERMITE_TERMS)
        shares = [(blocks @ m.T).reshape(-1, _HERMITE_TERMS + 1)[: target.size] for m in (_SHARES, _SLOPES)]
        order = np.argsort(target, kind="stable")
        first = np.searchsorted(target[order], np.arange(keys.size))
        table = np.zeros((_HERMITE_TERMS + 1, 2 * keys.size + 1))
        table[:, : keys.size] = np.add.reduceat((shares[0] + eps * shares[1])[order], first, axis=0).T
        left = np.cumsum(np.concatenate(([0.0], counts)))
        table[-1] += left[np.searchsorted(source, np.concatenate((keys - _TRANSLATE, keys, [np.inf])))]
        b = np.arange(1.0, _HERMITE_TERMS + 1.0)[:, None]  # b + 1
        coef = np.stack([table[:-1], table[:-1] * (_INV_SQRT_PI / b)])
        return s[0], keys, np.concatenate((centres, np.zeros(keys.size + 1))), float(counts.max()), coef, table[-1]

    def _expanded(self, x, pdf, cdf):
        """Kernel sums if ``pdf`` and kernel-cdf sums if ``cdf``, over all
        centres at 1-d ``x``; None where not asked for.

        A point x in target box T, at v = (x - t_T) / w, takes one column of
        the table: the kernel sum ``sum_b L_b v**b`` and the kernel-cdf sum
        ``cum(t_T) + pi**-0.5 sum_b L_b v**(b+1) / (b+1)``, each by Horner's
        rule from b = _HERMITE_TERMS - 1 down.  A point in no target box
        lies beyond _REACH of every centre: its kernel sum is 0 and its
        kernel-cdf sum the count of centres left of it.
        """
        origin, keys, centres, _, coef, base = self._boxes
        width = self.bandwidth * _SQRT2
        dens = np.empty(x.size) if pdf else None
        cum = np.empty(x.size) if cdf else None
        step = max(1, _CHUNK_ELEMENTS // _HERMITE_TERMS)  # a gather holds 25 rows of a chunk
        for start in range(0, x.size, step):
            chunk = slice(start, start + step)
            xc = x[chunk]
            key = np.floor((xc - origin) / width)
            box = np.searchsorted(keys, key)
            inside = keys.take(box, mode="clip") == key
            box = np.where(inside, box, box + keys.size)
            v = np.where(inside, (xc - centres[box]) / width, 0.0)
            if pdf:
                dens[chunk] = _horner(coef[0].take(box, axis=1), v)
            if cdf:
                cum[chunk] = base.take(box) + v * _horner(coef[1].take(box, axis=1), v)
        for out in (dens, cum):
            if out is not None:
                out[np.isnan(x)] = np.nan
        return dens, cum

    def _dense_sums(self, x, pdf, cdf):
        """As :meth:`_expanded`, summed over every centre: one block of t per
        chunk of points feeds both sums."""
        dens = np.empty(x.size) if pdf else None
        cum = np.empty(x.size) if cdf else None
        for sl, t in self._kernel_columns(x):
            if pdf:
                dens[sl] = np.exp(-0.5 * t * t).sum(axis=1)
            if cdf:
                cum[sl] = ndtr(t).sum(axis=1)
        return dens, cum

    def _kernel_sums(self, x, pdf, cdf, dense=False):
        """The pdf if ``pdf`` and the clamped cdf if ``cdf`` at 1-d ``x``, None
        where not asked for: the sums over the centres of exp(-t**2 / 2) and
        of ndtr(t), scaled.

        Both sums come from one gather of each point's target box in the
        fast Gauss transform's table (:meth:`_expanded`), and a pdf sum that
        falls below _EXACT_BELOW of the largest box count is summed again
        over every centre (:meth:`_dense_sums`).  If ``dense``, as for
        :meth:`quantile` below _FGT_MIN_CENTRES, every sum runs over every
        centre.
        """
        with np.errstate(over="ignore"):  # huge points; see the module docstring
            if dense:
                dens, cum = self._dense_sums(x, pdf, cdf)
            else:
                dens, cum = self._expanded(x, pdf, cdf)
                if pdf:
                    low = np.nonzero(dens < _EXACT_BELOW * self._boxes[3])[0]
                    dens[low] = self._dense_sums(x[low], pdf=True, cdf=False)[0]
        if pdf:
            dens /= self.samples.size
            dens *= _INV_SQRT_2PI / self.bandwidth
        if cdf:
            cum /= self.samples.size
            np.clip(cum, CDF_FLOOR, CDF_CEIL, out=cum)
        return dens, cum

    def _log_of_pdf(self, x, dens):
        """:meth:`log_pdf` at 1-d ``x`` whose pdf is ``dens``."""
        out = np.empty(dens.size, dtype=float)
        normal = dens >= _TINY
        out[normal] = np.log(dens[normal])
        under = np.nonzero(~normal)[0]
        if under.size:
            log_norm = np.log(self.samples.size * self.bandwidth * np.sqrt(2.0 * np.pi))
            with np.errstate(over="ignore"):  # huge points; see the module docstring
                for sl, t in self._kernel_columns(x[under]):
                    out[under[sl]] = logsumexp(-0.5 * t * t, axis=1) - log_norm
            lost = np.isneginf(out) & np.isfinite(x)
            if lost.any():
                raise OutOfRangeError(
                    f"log density at x={float(x[lost][0])!r} lies below -{float(np.finfo(float).max)!r}"
                )
        return out

    def _cdf_and_log_pdf(self, x):
        """``(cdf(x), log_pdf(x))`` at 1-d ``x``, bitwise as the two public
        calls give them, from one gather of each point's table column."""
        dens, cum = self._kernel_sums(x, pdf=True, cdf=True)
        return cum, self._log_of_pdf(x, dens)

    def pdf(self, x):
        """Density at ``x`` (scalar or array; returns matching shape).

        The mean of the m kernels at ``x``, from the fast Gauss transform's
        ``_HERMITE_TERMS``-term Taylor series about the centre of the
        point's box (truncation at most 2**-53 of a kernel's peak by
        Cramer's inequality), except where that falls below
        ``_EXACT_BELOW`` of the peak: there it is summed over every centre.
        See the module docstring.
        """
        x = np.asarray(x, dtype=float)
        out, _ = self._kernel_sums(x.reshape(-1), pdf=True, cdf=False)
        return out.reshape(x.shape) if x.shape else float(out[0])

    def log_pdf(self, x):
        """Log density at ``x``; finite even where :meth:`pdf` underflows to 0.

        Equals ``np.log(pdf(x))`` wherever ``pdf(x)`` is a normal float, at
        least ``np.finfo(float).tiny``.  Further beyond the support the pdf
        loses its significant bits and then underflows to 0, so there the log
        is taken inside the kernel sum over every centre:
        ``logsumexp(-t**2 / 2) - log(m h sqrt(2 pi))``.  Scoring takes it and
        the cdf from one kernel pass, :meth:`_cdf_and_log_pdf`, with the same
        bits.

        Raises
        ------
        OutOfRangeError
            A finite point's log density lies below -``np.finfo(float).max``.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        out = self._log_of_pdf(flat, self._kernel_sums(flat, pdf=True, cdf=False)[0])
        return out.reshape(x.shape) if x.shape else float(out[0])

    def cdf(self, x):
        """Clamped distribution function at ``x``.

        Values are clipped to ``[CDF_FLOOR, CDF_CEIL]`` so the normal score
        of any output is finite.  The mean of the m kernel cdfs: the sum at
        the centre of the point's box plus the ``_HERMITE_TERMS``-term Taylor
        series of the kernel sum's integral from there (see the module
        docstring).
        """
        x = np.asarray(x, dtype=float)
        _, out = self._kernel_sums(x.reshape(-1), pdf=False, cdf=True)
        return out.reshape(x.shape) if x.shape else float(out[0])

    def quantile(self, u):
        """Inverse of :meth:`cdf` by safeguarded Newton iteration.

        Each of n targets starts at the linear interpolation inside its
        bracket of a cdf table of n + 1 evenly spaced points over the
        support, so a target's bits depend on n (within ``_QUANTILE_TOL``).
        Every iteration evaluates the cdf and the pdf on the targets not yet
        converged, in one kernel pass, shrinks each bracket by the sign of
        the error, and takes the Newton step ``x - err / pdf(x)``, or the
        bracket midpoint when that step is not finite or leaves the bracket.
        A target whose bracket holds no float strictly inside its ends stops
        at the end whose cdf lies nearer to it: far from zero against its
        spread (a column near 1e8 of unit spread) adjacent floats step the
        cdf by more than ``_QUANTILE_TOL``.  Below ``_FGT_MIN_CENTRES``
        centres both the table and the steps sum every kernel.

        Parameters
        ----------
        u : scalar or array
            Target probabilities, each strictly inside (0, 1).  Targets are
            clipped to the reachable range ``[CDF_FLOOR, CDF_CEIL]`` first.

        Returns
        -------
        Value(s) ``x`` with ``|cdf(x) - u| < _QUANTILE_TOL``, or the nearer
        end of a bracket one float wide, shaped like ``u``.

        Raises
        ------
        ConvergenceError
            Some target still misses ``_QUANTILE_TOL`` after
            ``_QUANTILE_MAX_ITER`` kernel passes.
        """
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        if flat.size == 0:
            return u.copy()
        if not np.all(np.isfinite(flat)) or np.any(flat <= 0.0) or np.any(flat >= 1.0):
            raise OutOfRangeError("quantile targets must lie strictly inside (0, 1)")
        target = np.clip(flat, CDF_FLOOR, CDF_CEIL)

        dense = self.samples.size < _FGT_MIN_CENTRES
        # The support ends lie in the clamp, so the table brackets every target.
        xs = np.linspace(self.support_lo, self.support_hi, target.size + 1)
        cs = self._kernel_sums(xs, pdf=False, cdf=True, dense=dense)[1]
        hi_idx = np.clip(np.searchsorted(cs, target, side="left"), 1, xs.size - 1)
        lo = xs[hi_idx - 1].copy()
        hi = xs[hi_idx].copy()
        c_lo = cs[hi_idx - 1]
        rise = cs[hi_idx] - c_lo
        frac = np.divide(target - c_lo, rise, out=np.full(target.size, 0.5), where=rise > 0.0)
        err_lo, err_hi = c_lo - target, cs[hi_idx] - target  # cdf minus target at each end
        x = np.minimum(lo + np.clip(frac, 0.0, 1.0) * (hi - lo), hi)  # rounding can pass hi

        active = np.arange(target.size)
        # A zero pdf makes the Newton step inf or nan; the bracket then takes over.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(_QUANTILE_MAX_ITER):
                xa = x[active]
                dens, cum = self._kernel_sums(xa, pdf=True, cdf=True, dense=dense)
                err = cum - target[active]
                open_ = np.abs(err) >= _QUANTILE_TOL
                up = open_ & (err > 0.0)
                down = open_ ^ up
                hi[active[up]], err_hi[active[up]] = xa[up], err[up]
                lo[active[down]], err_lo[active[down]] = xa[down], err[down]
                la, ha = lo[active], hi[active]
                closed = open_ & (np.nextafter(la, ha) >= ha)
                if closed.any():
                    done = active[closed]
                    x[done] = np.where(np.abs(err_lo[done]) <= np.abs(err_hi[done]), lo[done], hi[done])
                    open_ ^= closed
                active, xa, err, dens, la, ha = (a[open_] for a in (active, xa, err, dens, la, ha))
                if active.size == 0:
                    return x.reshape(u.shape) if u.shape else float(x[0])
                step = xa - err / dens
                x[active] = np.where((step > la) & (step < ha), step, 0.5 * (la + ha))
        raise ConvergenceError(
            f"quantile left {active.size} of {target.size} targets outside tol={_QUANTILE_TOL:g} "
            f"after {_QUANTILE_MAX_ITER} cdf evaluations"
        )


def fit_kde(values):
    """Fit a Gaussian kernel density to one variable's observed values.

    The kernel width follows the rule
    ``1.06 * std(values, ddof=1) * len(values) ** (-1/5)``; build a
    :class:`KdeMarginal` directly for a given width.

    Parameters
    ----------
    values : array_like
        Observed values; NaN entries are treated as missing and dropped.

    Returns
    -------
    KdeMarginal

    Raises
    ------
    EmptyInputError
        No values (after dropping NaN).
    DegenerateInputError
        Fewer than two values, or all values identical.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise InvalidInputError(f"marginal values must be one-dimensional, got shape {arr.shape}")
    arr = arr.reshape(-1)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        raise EmptyInputError("no observed values to fit a marginal to")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("marginal values contain +/-inf")
    if arr.size < 2:
        raise DegenerateInputError("need at least 2 observed values to fit a marginal")
    std = float(np.std(arr, ddof=1))
    if std == 0.0:
        raise DegenerateInputError("all observed values are identical; marginal would be degenerate")
    return KdeMarginal(arr, 1.06 * std * arr.size ** (-0.2))
