"""The standard normal distribution function, its inverse and log-sum-exp,
in numpy alone.

``ndtr``
    A Taylor table: a node every 1/256 on [-9, 9], each holding the first 7
    Taylor coefficients of ndtr there, built at import from ``math.erfc`` and
    the Hermite recurrence (the n-th derivative of ndtr is
    phi (-1)**(n-1) He_(n-1), as in the fast Gauss transform of
    ``marginals``).  A point costs one gather of its nearest node's column and
    one Horner pass in its offset from that node, at most 1/512.  The
    truncation is below 2e-16 of the value even at -9.  Beyond
    +/-(9 + 1/512) it returns 0 or 1: an absolute error below
    ndtr(-9) = 1.13e-19, which its one caller tolerates:
    ``cbn.forward_sample`` maps a drawn child's normal score to u with it,
    and the quantile clips u to the cdf's clamp, [1e-6, 1 - 1e-6].  Against
    mpmath its largest relative error on [-9, 9] measured 4.4e-16, where
    ``scipy.special.ndtr`` measured 1.4e-14.
``ndtri``
    Wichura's AS 241 (Applied Statistics 37, 1988): one rational function of
    degree 7 over 7 for |p - 1/2| <= 0.425 and two in r = sqrt(-log s),
    s = min(p, 1 - p), split at r = 5.  ``scripts/ndtri_coefficients.py``
    fits the coefficients to mpmath and checks the result: the largest
    relative error on [1e-300, 1 - 1e-16] measured 6.6e-16.
``logsumexp``
    ``scipy.special.logsumexp``'s arithmetic for a real array along one axis,
    so its values keep scipy's bits.

Each function works elementwise (along its axis for ``logsumexp``), so a
value is bitwise the same alone and in any batch.  NaN gives NaN, and no
input, however large or infinite, raises a ``RuntimeWarning``.
"""

import decimal
import math

import numpy as np

__all__ = ["ndtr", "ndtri", "logsumexp"]

_NDTR_STEPS = 256  # nodes per unit
_NDTR_TERMS = 7
# Nodes j / 256 for |j| <= _NDTR_LAST; the two outermost are sentinels.
_NDTR_LAST = 9 * _NDTR_STEPS + 1
_NDTR_EDGE = _NDTR_LAST / _NDTR_STEPS


def _ndtr_table():
    # Column j holds, for the node x = j / 256 - _NDTR_EDGE, the Taylor
    # coefficients ndtr^(n)(x) / n! times 256**-n, so that the series runs in
    # the offset e = 256 (t - x), in [-1/2, 1/2].  Scaling by powers of two
    # changes no bit of the sum.  ndtr(x) = erfc(-x / sqrt 2) / 2, but the
    # rounding of -x / sqrt 2 alone would cost up to x**2 ulps (81 at -9),
    # so the term erfc' = -2 exp(-a**2) / sqrt(pi) times that rounding error
    # is taken back out.  The error comes exactly from a Veltkamp split of
    # the rounded 1 / sqrt 2 into 26-bit halves, whose products with the
    # 12-bit nodes are exact, and from 1 / sqrt 2 to 40 digits.
    x = np.arange(-_NDTR_LAST, _NDTR_LAST + 1) / _NDTR_STEPS
    half = math.sqrt(0.5)
    half_lo = float(decimal.Decimal(0.5).sqrt(decimal.Context(prec=40)) - decimal.Decimal(half))
    split = 134217729.0 * half
    half_hi = split - (split - half)
    arg = -x * half
    rounding = ((-x * half_hi) - arg) - x * (half - half_hi) - x * half_lo
    table = np.empty((_NDTR_TERMS, x.size))
    table[0] = [0.5 * math.erfc(a) for a in arg.tolist()]
    table[0] -= rounding * np.exp(-arg * arg) / math.sqrt(math.pi)
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    he_prev, he = np.zeros_like(x), np.ones_like(x)  # He_(n-2), He_(n-1)
    for n in range(1, _NDTR_TERMS):
        table[n] = phi * he * ((-1.0) ** (n - 1) / math.factorial(n) / float(_NDTR_STEPS) ** n)
        he_prev, he = he, x * he - (n - 1) * he_prev
    table[:, 0] = 0.0  # left of -(9 + 1/512)
    table[:, -1] = 0.0  # right of 9 + 1/512
    table[0, -1] = 1.0
    table.setflags(write=False)
    return table


_NDTR_TABLE = _ndtr_table()


def ndtr(x):
    """The standard normal distribution function at each element of ``x``.

    From a Taylor table with a node every 1/256 on [-9, 9]: one gather and
    one 7-term Horner pass (see the module docstring).  Largest relative
    error 4.4e-16 on [-9, 9]; 0 below -(9 + 1/512) and 1 above 9 + 1/512, an
    absolute error below 1.2e-19.
    """
    x = np.asarray(x, dtype=float)
    t = np.maximum(x.reshape(-1), -_NDTR_EDGE)  # NaN stays NaN
    np.minimum(t, _NDTR_EDGE, out=t)
    t *= _NDTR_STEPS
    node = np.rint(t)
    t -= node
    node += _NDTR_LAST
    np.fmax(node, 0.0, out=node)  # NaN gathers a sentinel; its offset keeps the NaN
    coef = _NDTR_TABLE.take(node.astype(np.intp), axis=1, mode="wrap")
    out = coef[-1]
    for row in coef[-2::-1]:
        out *= t
        out += row
    return out.reshape(x.shape)[()]


# AS 241's rational functions, coefficients lowest degree first, fitted and
# checked against mpmath by scripts/ndtri_coefficients.py.
_CENTRAL_NUM = (
    3.3871328727963665,
    133.1423935063869,
    1971.614361423392,
    13731.960650360736,
    45923.25161479746,
    67268.35159460748,
    33432.234307450475,
    2509.235794442585,
)
_CENTRAL_DEN = (
    1.0,
    42.31354492839087,
    687.1945630785433,
    5394.292796228942,
    21214.34621718832,
    39309.281916134576,
    28730.39527254356,
    5226.7916380511415,
)
_NEAR_NUM = (
    1.4234371107496837,
    4.633766642231067,
    5.780029005656613,
    3.659579626781195,
    1.2764932513048088,
    0.24325919180734437,
    0.02288056566508215,
    0.0007797470924041316,
)
_NEAR_DEN = (
    1.0,
    2.0556004412236892,
    1.6808937292390305,
    0.6928076378098144,
    0.14899147939061697,
    0.015303635066065574,
    0.0005512719546334029,
    1.051053282835588e-09,
)
_FAR_NUM = (
    6.657904643501104,
    5.462207761847544,
    1.783643154799984,
    0.29621694880018656,
    0.026483563531946027,
    0.0012392125814248704,
    2.7003880971743993e-05,
    1.9981998641437355e-07,
)
_FAR_DEN = (
    1.0,
    0.5995953228212871,
    0.13680444681968795,
    0.014851138494763575,
    0.0007848013689705666,
    1.8388504328516e-05,
    1.4129314622927217e-07,
    2.0098134853581282e-15,
)


def _rational(num, den, r):
    """``num(r) / den(r)``, each by Horner's rule."""
    top = np.full_like(r, num[-1])
    bottom = np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        top *= r
        top += a
        bottom *= r
        bottom += b
    top /= bottom
    return top


def ndtri(p):
    """The standard normal quantile at each element of ``p``.

    -inf at 0, inf at 1 and NaN outside [0, 1].  AS 241's three rational
    branches (see the module docstring): on [1e-300, 1 - 1e-16] its largest
    relative error against mpmath measured 6.6e-16.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    q = flat - 0.5
    with np.errstate(over="ignore", invalid="ignore"):  # the tail's values are replaced below
        out = q * _rational(_CENTRAL_NUM, _CENTRAL_DEN, 0.180625 - q * q)
    tail = ~(np.abs(q) <= 0.425)  # NaN takes the tail branch
    if tail.any():
        pt = flat[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))  # 1 - p is exact for p >= 1/2
            x = _rational(_NEAR_NUM, _NEAR_DEN, r - 1.6)
            far = ~(r <= 5.0)
            if far.any():
                x[far] = _rational(_FAR_NUM, _FAR_DEN, r[far] - 5.0)
        x[r == np.inf] = np.inf
        out[tail] = np.where(pt < 0.5, -x, x)
    return out.reshape(p.shape)[()]


def logsumexp(a, axis):
    """``log(sum(exp(a), axis))`` of a real array without overflow.

    scipy's arithmetic: with M the largest element along the axis and k its
    count, ``log1p(S / k) + log(k) + M``, S summing exp(a - M) over the other
    elements; where that is not finite, ``log(sum(exp(a)))``.  So a slice of
    -inf alone gives -inf and a slice holding NaN gives NaN.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axis, keepdims=True)
        ties = a == top
        count = ties.sum(axis=axis, keepdims=True, dtype=float)
        rest = np.exp(np.where(ties, -np.inf, a) - top).sum(axis=axis, keepdims=True)
        rest = np.where(rest == 0.0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
        direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
    return np.squeeze(np.where(np.isfinite(out), out, direct), axis=axis)[()]
