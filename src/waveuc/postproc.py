"""Lifting of the time-discontinuous solution, error norms and EOC rates.

The discrete displacement is discontinuous across slab interfaces.  The
lifting subtracts, on every slab after the first, the interface jump times
the decaying linear blending weight theta_n(t) = (t_{n+1} - t) / dt, which
yields a time-continuous function in the same slab space without touching
the first slab.  Error norms are evaluated against the lifted displacement,
whose spatial coefficients (or those of its time derivative) at given
reference times LiftedSolution.coeffs_at returns on all slabs at once.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import gauss_lobatto_nodes, gauss_rule
from .slab_forms import element_dofs

__all__ = ["LiftedSolution", "ErrorReport", "lift", "extract_primal_field",
           "error_norms", "eoc"]

ERROR_QUADRATURE_POINTS = 6


@dataclass
class LiftedSolution:
    """The lifted displacement in the slab space it was lifted in: coeffs
    has shape (n_slabs, q + 1, n_x), one row per slab in space's temporal
    basis."""

    space: object
    coeffs: np.ndarray

    @property
    def n_slabs(self):
        return self.coeffs.shape[0]

    def coeffs_at(self, xi, deriv=0):
        """Spatial coefficients of the lifted function (deriv = 0) or of its
        time derivative (deriv = 1) at the reference times xi of every
        slab, shape (n_slabs,) + shape(xi) + (n_x,)."""
        xi = np.asarray(xi, dtype=float)
        values = self.space.tbasis.eval(xi.ravel(), deriv) @ self.coeffs
        return (values / self.space.dt**deriv).reshape(
            (self.n_slabs,) + xi.shape + (-1,))


def extract_primal_field(system, x):
    """Displacement (first primal field) coefficients from a global vector,
    shape (N, q + 1, n_x)."""
    space = system.primal
    return system.slab_view(x)[:, : space.n_field].reshape(
        system.n_slabs, space.n_modes, space.n_x).copy()


def lift(space, u1):
    """Lift per-slab displacement coefficients to a time-continuous function
    in the same slab space.

    u1 has shape (n_slabs, q + 1, n_x), with q >= 1: the temporal basis is
    then nodal at both slab ends, so each slab's start and end traces are
    its first and last modes.  The first slab is returned unchanged.
    """
    if space.degree_t < 1:
        raise ValueError("the lift needs a temporal degree q >= 1, whose "
                         "basis is nodal at both slab ends")
    u1 = np.asarray(u1, dtype=float)
    theta = 1.0 - space.tbasis.nodes
    coeffs = u1.copy()
    # the jump at the start of every slab but the first
    jumps = u1[1:, 0] - u1[:-1, -1]
    coeffs[1:] -= theta[:, None] * jumps[:, None, :]
    return LiftedSolution(space, coeffs)


@dataclass
class ErrorReport:
    err_LinfL2_u: float
    err_L2L2_ut: float
    err_LinfL2_u_restricted: Optional[float] = None
    err_L2L2_ut_restricted: Optional[float] = None


def _squared_errors(sol, f, times, coeffs, region, rule):
    """Squared L2 distances between f(t, .) and the spatial functions with
    coefficient rows coeffs, one per time t, over region(t, T) or the
    whole mesh [0, 1] when region is None, by the quadrature rule on every
    element, where T = n_slabs * dt is the solution's final time.

    f and region are each called once, on all the times: f with times of
    shape (times, 1, 1) beside points of shape (times, elems, points), and
    region with the times array and T, which returns the arrays (or
    scalars) of the subintervals' ends.  All elements at all the times are
    handled in one array expression; elements cut by the region boundary
    get a sub-interval rule, and elements outside it a zero length.  Only
    the cut elements evaluate the spatial basis at their own points; every
    other element takes its values at the rule's reference points.
    """
    mesh, xb = sol.space.mesh, sol.space.xbasis
    x0, x1 = mesh.vertices[:-1], mesh.vertices[1:]
    local = coeffs[:, element_dofs(mesh, xb.degree)]  # (times, elems, dofs)
    uh = local @ xb.eval(rule.points).T  # (times, elems, points)
    # the whole mesh is the same at every time, so it is not repeated
    lo, hi = ((0.0, 1.0) if region is None else
              (np.asarray(end, dtype=float)[..., None]
               for end in region(times, sol.n_slabs * sol.space.dt)))
    a, b = np.maximum(x0, lo), np.minimum(x1, hi)
    width = np.maximum(b - a, 0.0)
    length = np.broadcast_to(width, uh.shape[:2])
    xq = width[..., None] * rule.points
    xq += a[..., None]
    xq = np.broadcast_to(xq, uh.shape)
    cut = np.nonzero((length > 0) & ((a > x0) | (b < x1)))
    if len(cut[0]):
        vals = xb.eval((xq[cut] - x0[cut[1], None]) / mesh.h)
        uh[cut] = np.einsum("cqi,ci->cq", vals, local[cut])
    # the squared errors, in place of uh
    uh -= f(times[:, None, None], xq)
    np.square(uh, out=uh)
    return np.einsum("q,te,teq->t", rule.weights, length, uh)


def error_norms(u_exact, dt_u_exact, sol, region=None):
    """Error norms of the lifted displacement against an exact solution.

    The max-in-time norm is approximated by sampling Gauss-Lobatto points
    per slab (exact for the polynomial part).  The time derivative error is
    integrated with Gauss quadrature in time.  region, if given, maps an
    array of times and the final time T = n_slabs * dt to the spatial
    subintervals over which restricted norms are taken.
    The times of all slabs are stacked, so each norm takes one
    _squared_errors call per region.
    """
    dt = sol.space.dt
    samples = gauss_lobatto_nodes(sol.space.n_modes + 2)
    # one Gauss rule serves in time and, per element, in space
    rule = gauss_rule(ERROR_QUADRATURE_POINTS)
    start = dt * np.arange(sol.n_slabs)[:, None]
    t_val = (start + dt * samples).ravel()
    t_dt = (start + dt * rule.points).ravel()
    # rows slab-major, like the times: (slabs, points, n_x) flattened
    c = sol.coeffs_at(samples).reshape(len(t_val), -1)
    dc = sol.coeffs_at(rule.points, deriv=1).reshape(len(t_dt), -1)
    norms = []
    for reg in [None] if region is None else [None, region]:
        e = _squared_errors(sol, u_exact, t_val, c, reg, rule)
        norms.append(e.max())
        e = _squared_errors(sol, dt_u_exact, t_dt, dc, reg, rule)
        norms.append(dt * (e.reshape(sol.n_slabs, -1) @ rule.weights).sum())
    return ErrorReport(*(math.sqrt(v) for v in norms))


def eoc(errors):
    """Convergence rates under halving refinement: log2(e_prev / e_next)."""
    if len(errors) < 2:
        raise ValueError("need at least two levels for a convergence rate")
    rates = []
    for prev, cur in zip(errors, errors[1:]):
        if cur == 0.0:
            rates.append(math.inf)
        elif prev == 0.0:
            rates.append(-math.inf)
        else:
            rates.append(math.log2(prev / cur))
    return rates
