#!/usr/bin/env python3
"""Derive the rational coefficients of ``copulabn._normal.ndtri`` and check
``ndtri`` and ``ndtr`` against mpmath.

    python3 scripts/ndtri_coefficients.py

``ndtri`` follows Wichura's AS 241 (Applied Statistics 37, 1988): three
rational functions P(r) / Q(r) of degree 7 over 7, Q(0) = 1.

* central, |p - 1/2| <= 0.425: ``ndtri(p) = q P(r) / Q(r)`` with q = p - 1/2
  and r = 0.180625 - q**2, over r in [0, 0.180625];
* near tail, s = min(p, 1 - p) >= exp(-25): ``|ndtri(p)| = P(r) / Q(r)`` with
  r = sqrt(-log s) - 1.6, over r in [sqrt(-log 0.075) - 1.6, 3.4];
* far tail: the same with r = sqrt(-log s) - 5, over r in [0, 22.3], which
  reaches the smallest subnormal s.

Each fit takes its targets from mpmath at 40 digits on Chebyshev nodes of its
interval, minimises the relative error by linearised least squares
(Sanathanan-Koerner iterations, which divide each row by the last
denominator), and then reweights the rows by Lawson's rule towards the
minimax fit.  The script prints the coefficients as the module writes them,
each fit's largest relative error at its nodes, and whether the module holds
the same coefficients.  Then it prints the largest relative errors against
mpmath of the module's ``ndtri`` on [1e-300, 1 - 1e-16] and of its ``ndtr`` on
[-9, 9], with scipy's ``ndtr`` on the same points when scipy is installed.
It needs mpmath, and takes about half a minute.
"""

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from copulabn import _normal  # noqa: E402

mp.mp.dps = 40
DEGREE = 7
NODES = 120  # Chebyshev nodes per fit
SK_ITERATIONS = 6
LAWSON_ITERATIONS = 40


def ndtri_mp(log_p):
    """The x < 0 with log ncdf(x) = log_p, by Newton steps on the log cdf."""
    if log_p > mp.log(mp.mpf("0.05")):
        x = mp.sqrt(2) * mp.erfinv(2 * mp.exp(log_p) - 1)
    else:
        x = -mp.sqrt(-2 * log_p)  # beyond the root; the concave log cdf pulls it in
    for _ in range(100):
        c = mp.ncdf(x)
        step = (mp.log(c) - log_p) * c / mp.npdf(x)
        x -= step
        if abs(step) < mp.mpf(10) ** (3 - mp.mp.dps) * (1 + abs(x)):
            return x
    raise RuntimeError(f"Newton steps on log p = {log_p} did not converge")


def ndtri_of_float(p):
    """ndtri at the float p, exactly as mpmath sees it (1 - p is exact in mpmath)."""
    p = mp.mpf(float(p))
    if p < 0.5:
        return ndtri_mp(mp.log(p))
    return -ndtri_mp(mp.log(1 - p))


def chebyshev_nodes(lo, hi, count):
    return [(lo + hi) / 2 + (hi - lo) / 2 * mp.cos(mp.pi * (2 * k + 1) / (2 * count)) for k in range(count)]


def fit_rational(nodes, values):
    """Coefficients (lowest degree first) of P and Q, Q(0) = 1, minimising
    max |P/Q - g| / |g| over the nodes, and that maximum."""
    count = len(nodes)
    weights = [mp.mpf(1)] * count
    last_q = [mp.mpf(1)] * count
    for iteration in range(SK_ITERATIONS + LAWSON_ITERATIONS):
        a = mp.matrix(count, 2 * DEGREE + 1)
        b = mp.matrix(count, 1)
        for i, (r, g) in enumerate(zip(nodes, values)):
            scale = mp.sqrt(weights[i]) / (g * last_q[i])
            power = mp.mpf(1)
            for j in range(DEGREE + 1):
                a[i, j] = power * scale
                if j:
                    a[i, DEGREE + j] = -g * power * scale
                power *= r
            b[i] = g * scale
        solution = mp.qr_solve(a, b)[0]
        num = [solution[j] for j in range(DEGREE + 1)]
        den = [mp.mpf(1)] + [solution[DEGREE + j] for j in range(1, DEGREE + 1)]
        last_q = [mp.polyval(den[::-1], r) for r in nodes]
        errors = [(mp.polyval(num[::-1], r) / q - g) / g for r, q, g in zip(nodes, last_q, values)]
        if iteration >= SK_ITERATIONS:
            weights = [w * abs(e) for w, e in zip(weights, errors)]
            total = sum(weights)
            weights = [w / total for w in weights]
    return num, den, max(abs(e) for e in errors)


def branches(count):
    """{name: (nodes, targets)} of the three fits."""
    top = mp.mpf("0.180625")
    central = chebyshev_nodes(mp.mpf(0), top, count)
    central_targets = [mp.sqrt(2) * mp.erfinv(2 * mp.sqrt(top - r)) / mp.sqrt(top - r) for r in central]
    out = {"CENTRAL": (central, central_targets)}
    for name, lo, hi, shift in (
        ("NEAR", mp.sqrt(-mp.log(mp.mpf("0.075"))), mp.mpf(5), mp.mpf("1.6")),
        ("FAR", mp.mpf(5), mp.mpf("27.3"), mp.mpf(5)),
    ):
        nodes = chebyshev_nodes(lo - shift, hi - shift, count)
        out[name] = (nodes, [-ndtri_mp(-((r + shift) ** 2)) for r in nodes])
    return out


def derive():
    same = True
    for name, (nodes, targets) in branches(NODES).items():
        num, den, worst = fit_rational(nodes, targets)
        for part, coef in (("NUM", num), ("DEN", den)):
            values = tuple(float(c) for c in coef)
            same &= values == getattr(_normal, f"_{name}_{part}")
            print(f"_{name}_{part} = (")
            for v in values:
                print(f"    {v!r},")
            print(")")
        print(f"# {name.lower()}: largest relative error at the {NODES} nodes {mp.nstr(worst, 3)}")
    print("the module holds these coefficients" if same else "THE MODULE HOLDS OTHER COEFFICIENTS")
    return same


def largest_relative_error(values, points, reference):
    worst = mp.mpf(0)
    for v, x in zip(values.tolist(), points.tolist()):
        ref = reference(x)
        worst = max(worst, abs(mp.mpf(v) - ref) / abs(ref) if ref else abs(mp.mpf(v)))
    return float(worst)


def check(seed=0):
    rng = np.random.default_rng(seed)
    lower = np.concatenate([10.0 ** -rng.uniform(0.0, 300.0, 1500), rng.uniform(0.0, 0.5, 500)])
    p = np.concatenate([lower, 1.0 - 10.0 ** -rng.uniform(0.3, 16.0, 1000), [1e-300, 1.0 - 1e-16, 0.5]])
    print(f"ndtri on [1e-300, 1 - 1e-16], {p.size} points: largest relative error "
          f"{largest_relative_error(_normal.ndtri(p), p, ndtri_of_float):.3g}")
    x = np.concatenate([np.linspace(-9.0, 9.0, 18001), rng.uniform(-9.0, 9.0, 2000)])
    ncdf = lambda v: mp.ncdf(mp.mpf(v))  # noqa: E731
    print(f"ndtr on [-9, 9], {x.size} points: largest relative error "
          f"{largest_relative_error(_normal.ndtr(x), x, ncdf):.3g}")
    try:
        from scipy.special import ndtr as scipy_ndtr
    except ImportError:
        return
    print(f"scipy.special.ndtr on the same points: {largest_relative_error(scipy_ndtr(x), x, ncdf):.3g}")


def main():
    same = derive()
    check()
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
