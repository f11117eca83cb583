import numpy as np
import pytest

from waveuc.basis import (
    LagrangeBasis,
    SpatialBasis,
    TemporalBasis,
    gauss_lobatto_nodes,
    gauss_rule,
)


def test_gauss_rule_midpoint():
    rule = gauss_rule(1)
    assert rule.points == pytest.approx([0.5])
    assert rule.weights == pytest.approx([1.0])


def test_gauss_rule_two_points():
    rule = gauss_rule(2)
    expected = [(1 - 1 / np.sqrt(3)) / 2, (1 + 1 / np.sqrt(3)) / 2]
    assert rule.points == pytest.approx(expected)
    assert rule.weights == pytest.approx([0.5, 0.5])


def test_gauss_rule_integrates_quintic():
    rule = gauss_rule(3)
    value = np.sum(rule.weights * rule.points**5)
    assert value == pytest.approx(1 / 6, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_gauss_rule_exactness(n):
    rule = gauss_rule(n)
    for p in range(2 * n):
        value = np.sum(rule.weights * rule.points**p)
        assert value == pytest.approx(1 / (p + 1), abs=1e-13)


@pytest.mark.parametrize("n", [0, 21, -3])
def test_gauss_rule_rejects_bad_order(n):
    with pytest.raises(ValueError):
        gauss_rule(n)


@pytest.mark.parametrize("n", [1, 4, 20])
def test_gauss_rule_is_shared_and_read_only(n):
    # every caller gets the one rule of each order, so no caller may
    # change it for the others
    first, second = gauss_rule(n), gauss_rule(n)
    for a, b in ((first.points, second.points),
                 (first.weights, second.weights)):
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_gauss_lobatto_three_nodes():
    assert gauss_lobatto_nodes(3) == pytest.approx([0.0, 0.5, 1.0])


def test_gauss_lobatto_endpoints_and_symmetry():
    for n in (2, 3, 4, 5):
        nodes = gauss_lobatto_nodes(n)
        assert nodes[0] == pytest.approx(0.0, abs=1e-14)
        assert nodes[-1] == pytest.approx(1.0, abs=1e-14)
        assert nodes == pytest.approx(1.0 - nodes[::-1])


def test_p1_hats_at_midpoint():
    basis = SpatialBasis(1)
    assert basis.eval(np.array(0.5)) == pytest.approx([0.5, 0.5])


def test_nodal_delta_property():
    for k in (1, 2, 3):
        basis = SpatialBasis(k)
        vals = basis.eval(basis.nodes)
        assert np.allclose(vals, np.eye(k + 1), atol=1e-13)


def test_partition_of_unity_and_derivative_sum(rng):
    x = rng.uniform(0, 1, size=17)
    for k in (1, 2, 3):
        basis = SpatialBasis(k)
        assert np.allclose(basis.eval(x).sum(axis=-1), 1.0, atol=1e-12)
        assert np.allclose(basis.eval(x, deriv=1).sum(axis=-1), 0.0, atol=1e-11)


def test_second_derivative_of_quadratic():
    basis = SpatialBasis(2)
    # coefficients of x^2 in the nodal basis are the node values squared
    coeffs = basis.nodes**2
    x = np.linspace(0, 1, 7)
    assert basis.eval(x, deriv=2) @ coeffs == pytest.approx([2.0] * 7)


def test_temporal_q0_is_constant_one():
    basis = TemporalBasis(0)
    x = np.linspace(0, 1, 5)
    assert basis.eval(x) == pytest.approx(np.ones((5, 1)))
    assert basis.eval(x, deriv=1) == pytest.approx(np.zeros((5, 1)))


def test_temporal_nodes_are_gauss_lobatto():
    for q in (1, 2, 3):
        basis = TemporalBasis(q)
        assert basis.nodes == pytest.approx(gauss_lobatto_nodes(q + 1))


def test_degree_limits():
    with pytest.raises(ValueError):
        SpatialBasis(0)
    with pytest.raises(ValueError):
        SpatialBasis(4)
    with pytest.raises(ValueError):
        TemporalBasis(-1)


def test_partition_of_unity_degree_four(rng):
    basis = LagrangeBasis(np.linspace(0, 1, 5))
    x = rng.uniform(0, 1, size=11)
    assert np.allclose(basis.eval(x).sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(basis.eval(x, deriv=1).sum(axis=-1), 0.0, atol=1e-10)


def test_lagrange_interpolates():
    basis = LagrangeBasis([0.0, 0.3, 1.0])
    f = lambda x: 2 * x**2 - x + 1
    coeffs = f(basis.nodes)
    x = np.linspace(0, 1, 9)
    assert basis.eval(x) @ coeffs == pytest.approx(f(x))
