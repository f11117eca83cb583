"""Polynomial bases on the reference interval [0, 1] and Gauss quadrature."""

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "gauss_lobatto_nodes",
    "LagrangeBasis",
    "SpatialBasis",
    "TemporalBasis",
]

MAX_SPATIAL_DEGREE = 3
MAX_TEMPORAL_DEGREE = 3


class QuadratureRule:
    """Quadrature rule on the reference interval [0, 1]."""

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    @property
    def n_points(self):
        return len(self.points)


def gauss_rule(n_points):
    """Gauss-Legendre rule on [0, 1], exact for polynomials of degree 2n-1."""
    if not 1 <= n_points <= 20:
        raise ValueError(f"unsupported quadrature order: {n_points} (need 1..20)")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


def gauss_lobatto_nodes(n_nodes):
    """Gauss-Lobatto points on [0, 1] (both endpoints included), n_nodes >= 2."""
    if n_nodes < 2:
        raise ValueError("Gauss-Lobatto needs at least 2 nodes")
    if n_nodes == 2:
        return np.array([0.0, 1.0])
    # interior nodes are the roots of P'_{n-1} on [-1, 1]
    legendre = np.polynomial.legendre.Legendre.basis(n_nodes - 1)
    interior = legendre.deriv().roots()
    nodes = np.concatenate(([-1.0], np.sort(interior.real), [1.0]))
    return 0.5 * (nodes + 1.0)


class LagrangeBasis:
    """Nodal Lagrange basis on [0, 1] with evaluation of values and derivatives.

    Derivatives are reference-interval derivatives; mapping to a physical
    element of length L requires an extra factor (1/L)^deriv on the caller's
    side.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        self.degree = len(self.nodes) - 1
        self.cardinality = len(self.nodes)
        # column i of the coefficient matrix holds monomial coefficients of
        # basis function i (delta property at the nodes)
        vander = np.vander(self.nodes, increasing=True)
        coeffs = np.linalg.inv(vander)
        self._coeffs = [coeffs]
        for _ in range(2):
            prev = self._coeffs[-1]
            der = np.zeros_like(prev)
            if prev.shape[0] > 1:
                orders = np.arange(1, prev.shape[0])
                der[: prev.shape[0] - 1] = prev[1:] * orders[:, None]
            self._coeffs.append(der)

    def eval(self, x, deriv=0):
        """Values (or derivatives) of all basis functions at x.

        Returns an array of shape x.shape + (cardinality,).
        """
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0, 1 or 2")
        x = np.asarray(x, dtype=float)
        coeffs = self._coeffs[deriv]
        powers = x[..., None] ** np.arange(coeffs.shape[0])
        return powers @ coeffs


class SpatialBasis(LagrangeBasis):
    """Continuous Lagrange basis of degree k, nodal at equispaced points."""

    def __init__(self, degree):
        if not 1 <= degree <= MAX_SPATIAL_DEGREE:
            raise ValueError(f"spatial degree must be 1..{MAX_SPATIAL_DEGREE}")
        super().__init__(np.linspace(0.0, 1.0, degree + 1))


class TemporalBasis(LagrangeBasis):
    """Per-slab temporal basis of degree q.

    For q >= 1 the basis is nodal at Gauss-Lobatto points, so both slab
    endpoints carry a node and time traces select single modes.  For q = 0
    the single basis function is the constant 1.
    """

    def __init__(self, degree):
        if not 0 <= degree <= MAX_TEMPORAL_DEGREE:
            raise ValueError(f"temporal degree must be 0..{MAX_TEMPORAL_DEGREE}")
        if degree == 0:
            super().__init__(np.array([1.0]))
        else:
            super().__init__(gauss_lobatto_nodes(degree + 1))
