"""Fitting a copula network to complete data and sampling from it.

The estimator is two-stage: kernel marginals per column first, then one
correlation per family on the normal scores. The fitted model is a proper
joint density — here we fit a 4-variable chain with deliberately
non-Gaussian marginals, evaluate the density, draw forward samples, and
check the samples against theory.
"""

import numpy as np
from scipy.stats import spearmanr

from copulabn.cbn import fit_complete, forward_sample, log_density
from copulabn.dag import Dag
from copulabn.data import MaskedDataset

rng = np.random.default_rng(3)

# Ground truth: a chain of Gaussian copulas (edge correlation 0.6) under
# skewed and heavy-tailed marginal transforms.
num_rows, rho = 1500, 0.6
z = np.empty((num_rows, 4))
z[:, 0] = rng.standard_normal(num_rows)
for j in range(1, 4):
    z[:, j] = rho * z[:, j - 1] + np.sqrt(1 - rho**2) * rng.standard_normal(num_rows)
x = np.column_stack([
    np.exp(z[:, 0] / 2.0),          # lognormal-ish
    z[:, 1] + 0.25 * z[:, 1] ** 3,  # heavy tails
    z[:, 2],                        # plain normal
    3.0 * z[:, 3] - 5.0,            # rescaled
])
data = MaskedDataset.from_values(x, ("a", "b", "c", "d"))

model = fit_complete(data, Dag.chain(4))
print("fitted chain a -> b -> c -> d")
for child, parents in model.families():
    name = model.column_names[child]
    pname = model.column_names[parents[0]]
    print(f"  family {pname} -> {name}: rho = {model.rho[child]:+.4f} (truth +0.6)")
print()

print("joint log density at a few held points")
for row in (x[0], x[1], x[2]):
    print(f"  {np.round(row, 3)} -> {log_density(model, row):+.4f}")
print()

samples = forward_sample(model, 5000, seed=7)
print(f"forward-sampled {samples.shape[0]} rows")
print("  column means (sample vs training):")
for j, name in enumerate(model.column_names):
    print(f"    {name}: {samples[:, j].mean():8.4f} vs {x[:, j].mean():8.4f}")

# For a Gaussian copula with correlation rho the population Spearman
# correlation is (6/pi) asin(rho/2) — rank correlations survive the
# marginal warps untouched.
want = 6.0 / np.pi * np.arcsin(model.rho[1] / 2.0)
got = spearmanr(samples[:, 0], samples[:, 1]).statistic
print(f"\nSpearman a~b in the samples: {got:.4f} (closed form {want:.4f})")
