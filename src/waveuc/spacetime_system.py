"""Global space-time system: dof layout, matrix-free operator, right-hand
side, dense debug oracle and the associated norms.

The global coefficient vector is slab-major.  Each slab stores the primal
field pair (u1, u2) first and the dual pair (z1, z2) second; that ordering
makes the forward-relaxed interface coupling block-lower-triangular, which
the sweep preconditioners rely on.

Every slab carries the same blocks, so the operator, the right-hand side
and the norms work on the (n_slabs, slab_size) view of a global vector: each
block is applied once to all slabs as a sparse x dense product on the
transposed primal or dual columns (one column per slab), and the interface
terms couple the column ranges [:, 1:] (later slab) and [:, :-1] (earlier
slab).  dense_matrix keeps an independent per-slab assembly as the oracle.
"""

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule
from .mesh import build_interval_mesh, mark_data_domain
from .slab_forms import (
    SlabSpace,
    assemble_A,
    assemble_data_mass,
    assemble_dual_stabilizer,
    assemble_primal_stabilizers,
    interface_jump_blocks,
)

__all__ = ["SpaceTimeSystem", "NormReport"]

DENSE_DOF_LIMIT = 5000
DATA_QUADRATURE_POINTS = 6


@dataclass
class NormReport:
    """Components of the stabilized energy norm of one coefficient vector."""

    sh: float
    omega: float
    sstar: float
    jump: float
    total: float


class SpaceTimeSystem:
    """Assembled slab blocks plus the matrix-free global operator."""

    def __init__(self, config):
        config.validate()
        self.config = config
        self.mesh = build_interval_mesh(config.a, config.b, config.n_elems)
        self.data = mark_data_domain(self.mesh, config.omega)
        self.primal = SlabSpace(self.mesh, config.k, config.q, config.dt)
        self.dual = SlabSpace(self.mesh, config.kstar, config.qstar, config.dt)
        self.n_slabs = config.n_slabs

        self.A_pd = assemble_A(self.primal, self.dual)
        self.Sh = assemble_primal_stabilizers(self.primal)["Sh"]
        self.Sstar = assemble_dual_stabilizer(self.dual)
        self.Momega = assemble_data_mass(self.primal, self.primal, self.data)
        self.jump = interface_jump_blocks(self.primal)
        # transposes used by every operator application, built once
        self.A_pd_T = self.A_pd.T.tocsr()
        self.cross_T = self.jump["cross"].T.tocsr()

        self.n_primal = self.primal.n_pair
        self.n_dual = self.dual.n_pair
        self.slab_size = self.n_primal + self.n_dual
        self.ndof = self.n_slabs * self.slab_size

    # -- layout ----------------------------------------------------------

    def primal_slice(self, n):
        off = n * self.slab_size
        return slice(off, off + self.n_primal)

    def dual_slice(self, n):
        off = n * self.slab_size + self.n_primal
        return slice(off, off + self.n_dual)

    def zero_vector(self):
        return np.zeros(self.ndof)

    def slab_view(self, x):
        """x as an (n_slabs, slab_size) view; row n holds slab n."""
        if x.shape != (self.ndof,):
            raise ValueError(f"vector of length {x.shape} does not match layout "
                             f"({self.ndof} dofs)")
        return x.reshape(self.n_slabs, self.slab_size)

    # -- operator --------------------------------------------------------

    def _split(self, x):
        """Primal and dual coefficients of x, one column per slab."""
        X = self.slab_view(x)
        return (np.ascontiguousarray(X[:, : self.n_primal].T),
                np.ascontiguousarray(X[:, self.n_primal :].T))

    def _join(self, Up, Ud):
        """Global vector from per-slab primal and dual columns."""
        y = np.empty(self.ndof)
        Y = y.reshape(self.n_slabs, self.slab_size)
        Y[:, : self.n_primal] = Up.T
        Y[:, self.n_primal :] = Ud.T
        return y

    def apply(self, x):
        """Action of the full coupled operator.

        Primal-test rows carry the measurement mass, the primal stabilizers,
        the bidirectional interface jump terms and the adjoint of the wave
        operator acting on the dual pair; dual-test rows carry the wave
        operator on the primal pair minus the dual stabilizer.
        """
        U, Z = self._split(x)
        Yp = self.Momega @ U + self.Sh @ U + self.A_pd_T @ Z
        self._add_interface_jumps(U, Yp)
        return self._join(Yp, self.A_pd @ U - self.Sstar @ Z)

    def _add_interface_jumps(self, U, Yp):
        """Add the jump terms of every interface: column n of U and Yp is
        slab n, so the later slab of each interface is [:, 1:]."""
        P, Mm, C = self.jump["plus"], self.jump["minus"], self.jump["cross"]
        later, earlier = U[:, 1:], U[:, :-1]
        Yp[:, 1:] += P @ later - C @ earlier
        Yp[:, :-1] += Mm @ earlier - self.cross_T @ later

    def apply_primal_stabilized(self, x):
        """Primal-test rows of (measurement mass + stabilizers + interface
        jumps) applied to the primal part of x; dual rows zero."""
        U, _ = self._split(x)
        Yp = self.Momega @ U + self.Sh @ U
        self._add_interface_jumps(U, Yp)
        return self._join(Yp, np.zeros((self.n_dual, self.n_slabs)))

    # -- right-hand side -------------------------------------------------

    def assemble_rhs(self, u_omega):
        """Measurement data tested against w1 over the measurement region on
        every slab, by space-time quadrature."""
        rule = gauss_rule(DATA_QUADRATURE_POINTS)
        N, dt, h = self.n_slabs, self.config.dt, self.mesh.h
        space = self.primal
        k = space.degree_x
        elems = np.flatnonzero(self.data.element_mask)
        xq = self.mesh.vertices[elems, None] + h * rule.points
        taus = (np.arange(N) * dt)[:, None] + dt * rule.points
        f = np.array([np.broadcast_to(u_omega(tau, xq), xq.shape)
                      for tau in taus.ravel()])
        # (f, phi_i) on each marked element, then summed into the nodal dofs
        local = (rule.weights * h * f) @ space.xbasis.eval(rule.points)
        loads = np.zeros((f.shape[0], space.n_x))
        for i in range(k + 1):
            loads[:, k * elems + i] += local[:, :, i]
        loads = loads.reshape(N, rule.n_points, space.n_x)
        psi = space.tbasis.eval(rule.points)
        blocks = np.einsum("q,qm,nqj->nmj", dt * rule.weights, psi, loads)
        b = self.zero_vector()
        self.slab_view(b)[:, : space.n_field] = blocks.reshape(N, space.n_field)
        return b

    # -- dense oracle and norms ------------------------------------------

    def dense_matrix(self):
        """Explicit global matrix; debug oracle for small instances only."""
        if self.ndof > DENSE_DOF_LIMIT:
            raise ValueError(
                f"dense assembly refused for {self.ndof} dofs "
                f"(limit {DENSE_DOF_LIMIT})"
            )
        D = np.zeros((self.ndof, self.ndof))
        diag_pp = (self.Momega + self.Sh).toarray()
        A = self.A_pd.toarray()
        Sstar = self.Sstar.toarray()
        for n in range(self.n_slabs):
            ps, ds = self.primal_slice(n), self.dual_slice(n)
            D[ps, ps] += diag_pp
            D[ps, ds] += A.T
            D[ds, ps] += A
            D[ds, ds] -= Sstar
        P, Mm, C = (self.jump[k].toarray() for k in ("plus", "minus", "cross"))
        for n in range(1, self.n_slabs):
            ps_prev, ps = self.primal_slice(n - 1), self.primal_slice(n)
            D[ps, ps] += P
            D[ps_prev, ps_prev] += Mm
            D[ps, ps_prev] -= C
            D[ps_prev, ps] -= C.T
        return D

    def triple_norm(self, x):
        """Stabilized energy norm split into its four contributions."""
        U, Z = self._split(x)
        P, Mm, C = self.jump["plus"], self.jump["minus"], self.jump["cross"]
        later, earlier = U[:, 1:], U[:, :-1]
        sh2 = np.vdot(U, self.Sh @ U)
        om2 = np.vdot(U, self.Momega @ U)
        ds2 = np.vdot(Z, self.Sstar @ Z)
        jm2 = (np.sum(later * (P @ later)) + np.sum(earlier * (Mm @ earlier))
               - 2.0 * np.sum(later * (C @ earlier)))
        # quadratic forms can dip below zero by roundoff
        sh2, om2, ds2, jm2 = (max(v, 0.0) for v in (sh2, om2, ds2, jm2))
        total = np.sqrt(sh2 + om2 + ds2 + jm2)
        return NormReport(
            sh=np.sqrt(sh2),
            omega=np.sqrt(om2),
            sstar=np.sqrt(ds2),
            jump=np.sqrt(jm2),
            total=total,
        )
