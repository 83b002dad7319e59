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
derivative) inside a bracket read off a cached cdf table.  ``log_pdf`` stays
finite beyond the support, where the summed density underflows to 0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp, ndtr

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

# KdeMarginal.quantile stops each target once |cdf(x) - u| < _QUANTILE_TOL and
# raises ConvergenceError after _QUANTILE_MAX_ITER cdf evaluations.
_QUANTILE_TOL = 1e-10
_QUANTILE_MAX_ITER = 200


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
        """Yield (x_chunk_slice, standardized differences) in bounded chunks."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        step = max(1, _CHUNK_ELEMENTS // max(1, self.samples.size))
        for start in range(0, flat.size, step):
            chunk = flat[start : start + step]
            yield slice(start, start + chunk.size), (chunk[:, None] - self.samples[None, :]) / self.bandwidth

    def pdf(self, x):
        """Density at ``x`` (scalar or array; returns matching shape)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.size, dtype=float)
        for sl, t in self._kernel_columns(x):
            out[sl] = np.exp(-0.5 * t * t).mean(axis=1)
        out *= _INV_SQRT_2PI / self.bandwidth
        return out.reshape(x.shape) if x.shape else float(out[0])

    def log_pdf(self, x):
        """Log density at ``x``; finite even where :meth:`pdf` underflows to 0.

        Equals ``np.log(pdf(x))`` wherever ``pdf(x) > 0``.  Far beyond the
        support every kernel term underflows, so there the log is taken
        inside the kernel sum: ``logsumexp(-t**2 / 2) - log(m h sqrt(2 pi))``.
        """
        x = np.asarray(x, dtype=float)
        dens = np.asarray(self.pdf(x), dtype=float).reshape(-1)
        out = np.empty(dens.size, dtype=float)
        positive = dens > 0.0
        out[positive] = np.log(dens[positive])
        under = np.nonzero(~positive)[0]
        if under.size:
            far = x.reshape(-1)[under]
            log_norm = np.log(self.samples.size * self.bandwidth * np.sqrt(2.0 * np.pi))
            for sl, t in self._kernel_columns(far):
                out[under[sl]] = logsumexp(-0.5 * t * t, axis=1) - log_norm
        return out.reshape(x.shape) if x.shape else float(out[0])

    def cdf(self, x):
        """Clamped distribution function at ``x``.

        Values are clipped to ``[CDF_FLOOR, CDF_CEIL]`` so the normal score
        of any output is finite.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(x.size, dtype=float)
        for sl, t in self._kernel_columns(x):
            out[sl] = ndtr(t).mean(axis=1)
        np.clip(out, CDF_FLOOR, CDF_CEIL, out=out)
        return out.reshape(x.shape) if x.shape else float(out[0])

    @cached_property
    def _bracket_grid(self):
        # Monotone cdf table that gives each quantile target a narrow starting
        # bracket and a linear-interpolation first guess.  The 5-bandwidth pad
        # puts the support ends in the clamp, so the table runs from exactly
        # CDF_FLOOR to exactly CDF_CEIL and brackets every clipped target.
        xs = np.linspace(self.support_lo, self.support_hi, 1025)
        return xs, self.cdf(xs)

    def quantile(self, u):
        """Inverse of :meth:`cdf` by safeguarded Newton iteration.

        Each target starts at the linear interpolation inside its bracket of
        the cached cdf table.  Every iteration evaluates the cdf on the
        targets not yet converged, shrinks each bracket by the sign of the
        error, and takes the Newton step ``x - err / pdf(x)``, or the bracket
        midpoint when that step is not finite or leaves the bracket.

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

        xs, cs = self._bracket_grid
        hi_idx = np.clip(np.searchsorted(cs, target, side="left"), 1, xs.size - 1)
        lo = xs[hi_idx - 1].copy()
        hi = xs[hi_idx].copy()
        c_lo = cs[hi_idx - 1]
        rise = cs[hi_idx] - c_lo
        frac = np.divide(target - c_lo, rise, out=np.full(target.size, 0.5), where=rise > 0.0)
        x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)

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
