"""The uniform-correlation Gaussian copula and its density ratio terms.

A copula is a density on the unit cube with uniform one-dimensional
marginals; it carries the dependence of a joint distribution with the
marginals divided out. This package uses the Gaussian copula whose
correlation matrix has a single parameter rho shared by every pair, so
each family of the network costs one number. That number is the whole
copula: every function takes rho and reads the dimension from the points.

The network's building block is not the copula density itself but the
ratio R = c(child, parents) / c(parents): multiplying one ratio per family
over the graph (times the marginals) yields a valid joint density.
"""

import math

import numpy as np

from copulabn.copula import copula_log_density, fit_rho, ratio_log, rho_bounds

rng = np.random.default_rng(2)

print("valid rho intervals (positive-definiteness of the correlation matrix)")
for n in (2, 3, 5):
    lo, hi = rho_bounds(n)
    print(f"  n={n}: ({lo:+.4f}, {hi:+.4f})")
print()

print("bivariate copula density at rho=0.7")
print(f"  {'u':>6} {'v':>6} {'c(u,v)':>10}")
for u, v in ((0.5, 0.5), (0.9, 0.9), (0.9, 0.1), (0.99, 0.01)):
    value = float(np.exp(copula_log_density(0.7, [u, v])))
    print(f"  {u:6.2f} {v:6.2f} {value:10.4f}")
print("  (mass concentrates on the diagonal for positive rho)")
print()

# Ratio terms: the conditional correction a child contributes given its
# parents. With no dependence the ratio is identically 1.
print("log ratio terms at rho=0.4 (child with two parents)")
for u_child, u_parents in ((0.5, (0.5, 0.5)), (0.9, (0.85, 0.8)), (0.9, (0.1, 0.2))):
    r = float(ratio_log(0.4, u_child, np.asarray(u_parents)))
    print(f"  child {u_child:4.2f} parents {u_parents}: log R = {r:+.4f}")
print()

# Maximum-likelihood rho from data on the unit cube.
true_rho = 0.55
z0 = rng.standard_normal(3000)
z1 = true_rho * z0 + np.sqrt(1 - true_rho**2) * rng.standard_normal(3000)
# The standard normal cdf takes the scores to the unit square.
ndtr = np.vectorize(lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0)))
u_rows = ndtr(np.column_stack([z1, z0]))
rho_hat = fit_rho(u_rows)
print(f"fit_rho on 3000 simulated pairs: {rho_hat:.4f} (truth {true_rho})")
