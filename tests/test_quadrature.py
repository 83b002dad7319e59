"""The tests' quadrature oracles against closed-form polynomial integrals."""

import numpy as np

from conftest import normal_hermite_rule, tensor_rule, unit_legendre_rule


def test_unit_rule_integrates_monomials_exactly():
    # An n-point rule is exact through degree 2n - 1.
    nodes, weights = unit_legendre_rule(8)
    assert nodes.shape == (8,)
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    np.testing.assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-14)
    for k in range(16):
        estimate = float(weights @ nodes**k)
        np.testing.assert_allclose(estimate, 1.0 / (k + 1), rtol=0, atol=1e-13)


def test_unit_rule_converges_on_smooth_function():
    # integral of exp(u) over (0, 1) = e - 1
    nodes, weights = unit_legendre_rule(16)
    np.testing.assert_allclose(weights @ np.exp(nodes), np.e - 1.0, rtol=0, atol=1e-14)


def test_normal_rule_matches_standard_normal_moments():
    nodes, weights = normal_hermite_rule(6)
    np.testing.assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-13)
    # E[z^k] for a standard normal: 0, 1, 0, 3, 0, 15 ... exact when 6 nodes
    # cover the degree (k <= 11).
    exact = {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 8: 105.0}
    for k, value in exact.items():
        np.testing.assert_allclose(weights @ nodes**k, value, rtol=0, atol=1e-10)


def test_tensor_rule_shapes_and_weights():
    nodes, weights = normal_hermite_rule(4)
    grid, tensor_weights = tensor_rule(nodes, weights, 3)
    assert grid.shape == (64, 3)
    assert tensor_weights.shape == (64,)
    np.testing.assert_allclose(tensor_weights.sum(), 1.0, rtol=0, atol=1e-12)


def test_tensor_rule_integrates_separable_product():
    # E[z0^2 * z1^4] = 1 * 3 for independent standard normals.
    nodes, weights = normal_hermite_rule(5)
    grid, tensor_weights = tensor_rule(nodes, weights, 2)
    estimate = float(tensor_weights @ (grid[:, 0] ** 2 * grid[:, 1] ** 4))
    np.testing.assert_allclose(estimate, 3.0, rtol=0, atol=1e-10)


def test_tensor_unit_rule_integrates_over_square():
    # integral of u*v over the unit square = 1/4
    nodes, weights = unit_legendre_rule(6)
    grid, tensor_weights = tensor_rule(nodes, weights, 2)
    estimate = float(tensor_weights @ (grid[:, 0] * grid[:, 1]))
    np.testing.assert_allclose(estimate, 0.25, rtol=0, atol=1e-14)


def test_rules_are_cached_and_read_only():
    a_nodes, a_weights = unit_legendre_rule(8)
    b_nodes, b_weights = unit_legendre_rule(8)
    assert a_nodes is b_nodes and a_weights is b_weights
    assert not a_nodes.flags.writeable and not a_weights.flags.writeable
    h_nodes, h_weights = normal_hermite_rule(8)
    assert not h_nodes.flags.writeable and not h_weights.flags.writeable
