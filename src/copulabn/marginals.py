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
and ``cdf(x) = sum ndtr(t) / m``, with t = (x - s) / h.  Below
``_FGT_MIN_CENTRES`` centres both sums run over every centre, one exp or ndtr
per (point, centre) pair.  Above it they come from a fast Gauss transform
(Greengard & Strain 1991; Yang, Duraiswami & Gumerov 2003):

* Moments.  The sorted centres fall into boxes w = h sqrt(2) wide.  For a box
  centred at c, with u = (x - c) / w and d = (s - c) / w in [-1/2, 1/2],
  ``exp(-t**2 / 2) = exp(-(u - d)**2) = sum_a d**a / a! h_a(u)`` and
  ``ndtr(t) = erfc(d - u) / 2 = erfc(-u) / 2 - pi**-0.5 sum_{a>=1} d**a / a! h_(a-1)(u)``,
  where h_a(u) = H_a(u) exp(-u**2) are the Hermite functions.  So a box is
  its count and its moments A_a = sum d**a / a!, computed once per marginal,
  and the pdf and the cdf at any point are linear in the same moments.
* Truncation.  By Cramer's inequality,
  ``|h_a(u)| <= K 2**(a/2) sqrt(a!) exp(-u**2 / 2)`` with K = 1.086435, so
  the terms a >= P of one centre add at most ``K sum_{a>=P} 2**(-a/2) / sqrt(a!)``
  of a kernel's peak.  ``_HERMITE_TERMS`` is the smallest P for which that is
  at most 2**-53: P = 25.
* Cut-off.  A box whose centre lies more than ``_REACH`` = 1/2 + sqrt(53 log 2),
  about 6.56 widths, from x holds only centres whose kernel there is below
  2**-53 of its peak.  It is not expanded: it adds its count to the cdf sum
  if it lies left of x, and nothing else.  At most ``_SLOTS`` = 14 boxes are
  in reach of a point.
* Exact window.  The expansion's error is small against the peak, not
  against a small pdf: in a far tail its relative error reaches 1.  So
  where the expanded kernel sum falls below ``_EXACT_BELOW`` = 1e-3 of the
  largest box count (0.36 to 1.3 times the sum's peak), the sum is taken
  exactly over the point's window of sorted centres, which holds all but
  2**-53 of it.  Against the dense kernel on warped, tied, gapped and Cauchy
  columns of 200 to 4,000 centres, the expansion's relative error measured at
  most 7e-15 above that fraction and up to 6e-14 just below it.
* Crossover.  The expansion costs a fixed 25 terms in 14 slots per point
  against the dense kernel's m per point.  With 200 to 5,000 points per call
  the two broke even at 100 to 150 centres for the cdf and pdf together, and
  the dense kernel won on calls of 20 points.  ``_FGT_MIN_CENTRES`` = 200
  leaves a margin, so tables of a few hundred rows keep the dense kernel and
  its bits.

Huge points.  A finite point some 1e154 bandwidths or more from a centre
overflows t, or -t**2 / 2, to infinity.  The sums read that as an infinitely
far centre: its kernel adds 0 to the pdf and 0 or 1 to the cdf, without a
warning.  Where every term of a point's log-density sum overflows, its log
density lies below -``np.finfo(float).max`` and ``log_pdf`` raises
``OutOfRangeError``.

Every sum runs in a fixed order per point: for the expansion over a within a
box and then over the point's boxes from left to right.  So a point's pdf,
cdf and log_pdf are bitwise the same whether it is evaluated alone or in any
batch, and for any ``_CHUNK_ELEMENTS``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erfc, logsumexp, ndtr

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    EmptyInputError,
    InvalidInputError,
    OutOfRangeError,
)

__all__ = ["KdeMarginal", "fit_kde", "CDF_FLOOR", "CDF_CEIL"]

# Smallest / largest value the clamped cdf can return.  Keeps normal scores
# inside +/- ndtri(1 - 1e-6) ~= 4.7534 so downstream copula terms stay finite.
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
_REACH = 0.5 + math.sqrt(-math.log(_UNIT_ROUNDOFF))
_SLOTS = int(2.0 * _REACH) + 1
_EXACT_BELOW = 1e-3
_FGT_MIN_CENTRES = 200

# KdeMarginal.quantile stops each target once |cdf(x) - u| < _QUANTILE_TOL and
# raises ConvergenceError after _QUANTILE_MAX_ITER cdf evaluations.
_QUANTILE_TOL = 1e-10
_QUANTILE_MAX_ITER = 200


def _hermite_series(u, coefs, box):
    """Sum over a of coefs[a][box] * h_a(u), in order of a.

    h_a(u) = H_a(u) exp(-u**2) by the recurrence
    h_a = 2u h_(a-1) - 2(a-1) h_(a-2), starting from h_0 = exp(-u**2).
    """
    two_u = 2.0 * u
    h_prev, h = 0.0, np.exp(-u * u)
    total = coefs[0].take(box) * h
    for a in range(1, len(coefs)):
        h, h_prev = two_u * h - (2.0 * (a - 1)) * h_prev, h
        total += coefs[a].take(box) * h
    return total


@dataclass(frozen=True, eq=False)
class KdeMarginal:
    """Gaussian kernel density estimate of one variable.

    Attributes
    ----------
    samples : ndarray
        The observed values the estimate was fit to (1-d, finite).
    bandwidth : float
        Common kernel standard deviation.
    support_lo, support_hi : float
        Range outside which the density is treated as negligible.
    """

    samples: np.ndarray
    bandwidth: float
    support_lo: float
    support_hi: float

    @classmethod
    def from_params(cls, samples, bandwidth):
        """Build from samples and a bandwidth, deriving the support bounds.

        Shared by fitting and deserialization so both produce identical
        estimates from identical parameters.
        """
        samples = np.array(samples, dtype=float).reshape(-1)
        if samples.size == 0:
            raise EmptyInputError("no samples")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("samples contain non-finite values")
        bandwidth = float(bandwidth)
        if not np.isfinite(bandwidth) or bandwidth <= 0.0:
            raise OutOfRangeError(f"bandwidth must be a positive real, got {bandwidth!r}")
        samples.setflags(write=False)
        lo = float(samples.min() - _SUPPORT_PAD * bandwidth)
        hi = float(samples.max() + _SUPPORT_PAD * bandwidth)
        return cls(samples=samples, bandwidth=bandwidth, support_lo=lo, support_hi=hi)

    def _kernel_columns(self, x):
        """Yield (slice, standardized differences) over 1-d ``x`` in bounded chunks."""
        step = max(1, _CHUNK_ELEMENTS // self.samples.size)
        for start in range(0, x.size, step):
            chunk = x[start : start + step]
            yield slice(start, start + chunk.size), (chunk[:, None] - self.samples[None, :]) / self.bandwidth

    @cached_property
    def _sorted(self):
        return np.sort(self.samples)

    @cached_property
    def _boxes(self):
        # Sorted centres in boxes h*sqrt(2) wide.  Per box: its centre c, the
        # number of centres in earlier boxes, and the moments
        # A_a = sum d**a / a! of the offsets d = (s - c) / (h sqrt 2), one row
        # per a.  A last, empty box pads the slots of a point with fewer than
        # _SLOTS boxes in reach.
        s = self._sorted
        width = self.bandwidth * _SQRT2
        key = np.floor((s - s[0]) / width)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        counts = np.diff(np.r_[starts, s.size])
        centres = s[0] + (key[starts] + 0.5) * width
        d = (s - np.repeat(centres, counts)) / width
        moments = np.zeros((_HERMITE_TERMS, starts.size + 1))
        term = np.ones(s.size)
        for a in range(_HERMITE_TERMS):
            moments[a, :-1] = np.add.reduceat(term, starts)
            term = term * d / (a + 1)
        left = np.r_[0.0, np.cumsum(counts, dtype=float)]
        return np.r_[centres, 0.0], left, moments, float(counts.max())

    def _expanded(self, x, cdf):
        """Kernel sums, or kernel-cdf sums if ``cdf``, over all centres at 1-d ``x``.

        Every box within _REACH of a point is expanded; slot k of a point
        holds the k-th such box, and the sums run over a = 0, 1, ... within a
        slot and then over the slots in order.  Boxes beyond _REACH add their
        count to the cdf sum if they lie left of the point, and nothing else.
        """
        centres, left, moments, _ = self._boxes
        width = self.bandwidth * _SQRT2
        slots = np.arange(_SLOTS)[:, None]
        out = np.empty(x.size)
        # About eight (slots, points) arrays are alive at once.
        step = max(1, _CHUNK_ELEMENTS // (8 * _SLOTS))
        for start in range(0, x.size, step):
            xc = x[start : start + step]
            lo = np.searchsorted(centres[:-1], xc - _REACH * width, side="left")
            hi = np.searchsorted(centres[:-1], xc + _REACH * width, side="right")
            box = lo + slots
            inside = box < hi
            box = np.where(inside, box, centres.size - 1)
            u = np.where(inside, (xc - centres[box]) / width, 0.0)
            if cdf:
                part = 0.5 * moments[0].take(box) * erfc(-u) - _INV_SQRT_PI * _hermite_series(u, moments[1:], box)
                total = left[lo]
            else:
                part = _hermite_series(u, moments, box)
                total = np.zeros(xc.size)
            for k in range(_SLOTS):
                total += part[k]
            out[start : start + xc.size] = total
        out[np.isnan(x)] = np.nan
        return out

    def _window(self, x):
        """Index ranges of the sorted centres holding all but a 2**-53 share
        of each point's kernel sum, and always the point's nearest centre.

        A centre r from ``x`` adds exp(-r**2 / 2h**2); every centre beyond
        sqrt(g**2 + 2h**2 L) of a point whose nearest centre is g away adds
        less than exp(-L) times the nearest one, so with
        L = log(m) + 53 log(2) the m - 1 others together add less than 2**-53
        of the sum.
        """
        s = self._sorted
        i = np.searchsorted(s, x)
        near_lo, near_hi = np.maximum(i - 1, 0), np.minimum(i + 1, s.size)
        gap = np.minimum(np.abs(x - s[near_lo]), np.abs(s[near_hi - 1] - x))
        spread = 2.0 * (np.log(s.size) - np.log(_UNIT_ROUNDOFF))
        reach = np.hypot(gap, self.bandwidth * np.sqrt(spread))
        with np.errstate(invalid="ignore"):  # an infinite point's reach is infinite
            lo = np.searchsorted(s, x - reach, side="left")
            hi = np.searchsorted(s, x + reach, side="right")
        return np.minimum(lo, near_lo), np.maximum(hi, near_hi)

    def _exact_terms(self, x):
        """Yield (index into ``x``, -t**2 / 2) for 1-d ``x``, t = (x - s) / h.

        Below _FGT_MIN_CENTRES the rows run over every centre, a block of
        points at a time; above it, over one point's :meth:`_window`.
        """
        if self.samples.size < _FGT_MIN_CENTRES:
            for sl, t in self._kernel_columns(x):
                yield sl, -0.5 * t * t
            return
        lo, hi = self._window(x)
        for i, (xi, a, b) in enumerate(zip(x.tolist(), lo.tolist(), hi.tolist())):
            t = (xi - self._sorted[a:b]) / self.bandwidth
            yield i, -0.5 * t * t

    def _kernel_sums(self, x):
        """Sum over the centres of exp(-t**2 / 2) at 1-d ``x``: exact below
        _FGT_MIN_CENTRES; above it expanded, and exact over the window where
        the expansion falls below _EXACT_BELOW of the peak."""
        if self.samples.size < _FGT_MIN_CENTRES:
            out, exact = np.empty(x.size), np.arange(x.size)
        else:
            out = self._expanded(x, cdf=False)
            exact = np.nonzero(out < _EXACT_BELOW * self._boxes[3])[0]
        for idx, e in self._exact_terms(x[exact]):
            out[exact[idx]] = np.exp(e).sum(axis=-1)
        return out

    def pdf(self, x):
        """Density at ``x`` (scalar or array; returns matching shape).

        The mean of the m kernels at ``x``: summed over every centre below
        ``_FGT_MIN_CENTRES`` centres, and above it from the fast Gauss
        transform's ``_HERMITE_TERMS``-term expansion (truncation at most
        2**-53 of a kernel's peak by Cramer's inequality), except where that
        falls below ``_EXACT_BELOW`` of the peak: there it is summed exactly
        over the window of centres that holds all but 2**-53 of it.  See the
        module docstring.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # huge points; see the module docstring
            out = self._kernel_sums(x.reshape(-1))
        out /= self.samples.size
        out *= _INV_SQRT_2PI / self.bandwidth
        return out.reshape(x.shape) if x.shape else float(out[0])

    def log_pdf(self, x):
        """Log density at ``x``; finite even where :meth:`pdf` underflows to 0.

        Equals ``np.log(pdf(x))`` wherever ``pdf(x)`` is a normal float, at
        least ``np.finfo(float).tiny``.  Further beyond the support the pdf
        loses its significant bits and then underflows to 0, so there the log
        is taken inside the kernel sum: ``logsumexp(-t**2 / 2) - log(m h sqrt(2 pi))``,
        over every centre below ``_FGT_MIN_CENTRES`` centres and over the
        point's exact window (all but 2**-53 of the sum) above it.

        Raises
        ------
        OutOfRangeError
            A finite point's log density lies below -``np.finfo(float).max``.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        dens = np.asarray(self.pdf(x), dtype=float).reshape(-1)
        out = np.empty(dens.size, dtype=float)
        normal = dens >= _TINY
        out[normal] = np.log(dens[normal])
        under = np.nonzero(~normal)[0]
        if under.size:
            log_norm = np.log(self.samples.size * self.bandwidth * np.sqrt(2.0 * np.pi))
            with np.errstate(over="ignore"):  # huge points; see the module docstring
                for idx, e in self._exact_terms(flat[under]):
                    out[under[idx]] = logsumexp(e, axis=-1) - log_norm
            lost = np.isneginf(out) & np.isfinite(flat)
            if lost.any():
                raise OutOfRangeError(
                    f"log density at x={float(flat[lost][0])!r} lies below -{float(np.finfo(float).max)!r}"
                )
        return out.reshape(x.shape) if x.shape else float(out[0])

    def cdf(self, x):
        """Clamped distribution function at ``x``.

        Values are clipped to ``[CDF_FLOOR, CDF_CEIL]`` so the normal score
        of any output is finite.  The mean of the m kernel cdfs: summed over
        every centre below ``_FGT_MIN_CENTRES`` centres; above it, each box
        within ``_REACH`` of ``x`` adds its ``_HERMITE_TERMS``-term expansion
        and each box further left adds its count (see the module docstring).
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        with np.errstate(over="ignore"):  # huge points; see the module docstring
            if self.samples.size < _FGT_MIN_CENTRES:
                out = np.empty(flat.size, dtype=float)
                for sl, t in self._kernel_columns(flat):
                    out[sl] = ndtr(t).mean(axis=1)
            else:
                out = self._expanded(flat, cdf=True) / self.samples.size
        np.clip(out, CDF_FLOOR, CDF_CEIL, out=out)
        return out.reshape(x.shape) if x.shape else float(out[0])

    def quantile(self, u):
        """Inverse of :meth:`cdf` by safeguarded Newton iteration.

        Each of n targets starts at the linear interpolation inside its
        bracket of a cdf table of n + 1 evenly spaced points over the
        support, so a target's bits depend on n (within ``_QUANTILE_TOL``).
        Every iteration evaluates the cdf on the targets not yet converged,
        shrinks each bracket by the sign of the error, and takes the Newton
        step ``x - err / pdf(x)``, or the bracket midpoint when that step is
        not finite or leaves the bracket.

        Parameters
        ----------
        u : scalar or array
            Target probabilities, each strictly inside (0, 1).  Targets are
            clipped to the reachable range ``[CDF_FLOOR, CDF_CEIL]`` first.

        Returns
        -------
        Value(s) ``x`` with ``|cdf(x) - u| < _QUANTILE_TOL``, shaped like ``u``.

        Raises
        ------
        ConvergenceError
            Some target still misses ``_QUANTILE_TOL`` after
            ``_QUANTILE_MAX_ITER`` cdf evaluations.
        """
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        if flat.size == 0:
            return u.copy()
        if not np.all(np.isfinite(flat)) or np.any(flat <= 0.0) or np.any(flat >= 1.0):
            raise OutOfRangeError("quantile targets must lie strictly inside (0, 1)")
        target = np.clip(flat, CDF_FLOOR, CDF_CEIL)

        # The support ends lie in the clamp, so the table brackets every target.
        xs = np.linspace(self.support_lo, self.support_hi, target.size + 1)
        cs = self.cdf(xs)
        hi_idx = np.clip(np.searchsorted(cs, target, side="left"), 1, xs.size - 1)
        lo = xs[hi_idx - 1].copy()
        hi = xs[hi_idx].copy()
        c_lo = cs[hi_idx - 1]
        rise = cs[hi_idx] - c_lo
        frac = np.divide(target - c_lo, rise, out=np.full(target.size, 0.5), where=rise > 0.0)
        x = np.minimum(lo + np.clip(frac, 0.0, 1.0) * (hi - lo), hi)  # rounding can pass hi

        active = np.arange(target.size)
        for _ in range(_QUANTILE_MAX_ITER):
            xa = x[active]
            err = self.cdf(xa) - target[active]
            open_ = np.abs(err) >= _QUANTILE_TOL
            active, xa, err = active[open_], xa[open_], err[open_]
            if active.size == 0:
                return x.reshape(u.shape) if u.shape else float(x[0])
            high = err > 0.0
            hi[active[high]] = xa[high]
            lo[active[~high]] = xa[~high]
            la, ha = lo[active], hi[active]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                step = xa - err / self.pdf(xa)
            x[active] = np.where((step > la) & (step < ha), step, 0.5 * (la + ha))
        raise ConvergenceError(
            f"quantile left {active.size} of {target.size} targets outside tol={_QUANTILE_TOL:g} "
            f"after {_QUANTILE_MAX_ITER} cdf evaluations"
        )


def fit_kde(values):
    """Fit a Gaussian kernel density to one variable's observed values.

    The kernel width follows the rule
    ``1.06 * std(values, ddof=1) * len(values) ** (-1/5)``; use
    :meth:`KdeMarginal.from_params` for a given width.

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
    return KdeMarginal.from_params(arr, 1.06 * std * arr.size ** (-0.2))
