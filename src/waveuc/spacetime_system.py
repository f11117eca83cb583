"""Global space-time system: dof layout, matrix-free operator, right-hand
side, the global matrix with its dense debug view, and the associated
norms.

The global coefficient vector is slab-major.  Each slab stores the primal
field pair (u1, u2) first and the dual pair (z1, z2) second; that ordering
makes the forward-relaxed interface coupling block-lower-triangular, which
the sweep preconditioners rely on.

Every slab carries the same blocks, so the operator, the right-hand side
and the norms work on the (n_slabs, slab_size) view of a global vector: each
block is applied once to all slabs as a sparse x dense product on the
transposed primal or dual columns (one column per slab).  Each block is
stored once, as a CSR matrix; its transpose (A_pd_T, jump_weight_T) is
scipy's CSC view over the same arrays, which adds each output entry's
terms in the ascending order a sorted copy would.  primal_rows sums
the primal-test rows, which the forward-backward split also reads.  The
interface jump terms read and reach only the primal traces of each slab
(each field's last and first temporal modes), where every one of them is
the one spatial block W = jump_weight or its transpose, so trace_jumps
applies them to the traces alone; they couple the column ranges [:, 1:]
(later slab) and [:, :-1] (earlier slab).  W is assembled on the traces
directly.  The full jump blocks (jump) are built only when read, and in
the package only global_matrix reads them: it places them and the slab
blocks over the whole time domain as one sparse matrix, and dense_matrix,
the debug oracle, is its dense view.  The oracle assembles its own temporal
trace factors and full jump blocks, but it shares the spatial weights W1
and W2 with W through slab_forms._jump_terms.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .basis import gauss_rule
from .mesh import mark_data_domain
from .slab_forms import (
    SlabSpace,
    assemble_A,
    assemble_data_mass,
    assemble_dual_stabilizer,
    assemble_Sh,
    element_dofs,
    interface_jump_blocks,
    jump_weight,
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
    """Assembled slab blocks plus the matrix-free global operator.  Each
    block is kept once, as a CSR matrix; A_pd_T and jump_weight_T are the
    .T views of A_pd and jump_weight."""

    def __init__(self, config):
        config.validate()
        self.config = config
        self.mesh = config.mesh()
        # the measurement region, as a mask over the mesh's elements
        self.data = mark_data_domain(self.mesh, config.omega)
        self.primal = SlabSpace(self.mesh, config.k, config.q, config.dt)
        # at equal orders the dual space is the primal one, so all blocks
        # share one copy of each factor
        same = (config.kstar, config.qstar) == (config.k, config.q)
        self.dual = self.primal if same else SlabSpace(
            self.mesh, config.kstar, config.qstar, config.dt)
        self.n_slabs = config.n_slabs

        # every operator application reads A and its transpose, a view kept
        # because a fresh .T per product costs more than the product
        self.A_pd = assemble_A(self.primal, self.dual).tocsr()
        self.A_pd_T = self.A_pd.T
        self.Sh = assemble_Sh(self.primal).tocsr()
        self.Sstar = assemble_dual_stabilizer(self.dual).tocsr()
        self.Momega = assemble_data_mass(self.primal, self.primal,
                                         self.data).tocsr()
        # the primal rows the jump terms read and reach, trace: each field's
        # last temporal mode (end), then its first (start), disjoint because
        # q >= 1.  The temporal basis is nodal at both slab ends, so plus,
        # minus and cross restricted to them are all one spatial block W,
        # jump_weight; the transposed cross is W's transpose, the view
        # jump_weight_T, not W itself, because W is symmetric only up to
        # rounding
        modes = np.arange(self.primal.n_pair).reshape(
            2, self.primal.n_modes, -1)
        end, start = modes[:, -1].ravel(), modes[:, 0].ravel()
        self.trace, self.n_end = np.concatenate((end, start)), len(end)
        self.jump_weight = jump_weight(self.primal).tocsr()
        self.jump_weight_T = self.jump_weight.T

        self.n_primal = self.primal.n_pair
        self.n_dual = self.dual.n_pair
        self.slab_size = self.n_primal + self.n_dual
        self.ndof = self.n_slabs * self.slab_size

    @cached_property
    def jump(self):
        """The full jump blocks plus, minus and cross on a slab's primal
        pair (interface_jump_blocks), for the dense oracle."""
        return {name: block.tocsr() for name, block
                in interface_jump_blocks(self.primal).items()}

    # -- layout ----------------------------------------------------------

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

        Primal-test rows are primal_rows; dual-test rows carry the wave
        operator on the primal pair minus the dual stabilizer.
        """
        U, Z = self._split(x)
        return self._join(self.primal_rows(U, Z),
                          self.A_pd @ U - self.Sstar @ Z)

    def primal_rows(self, U, Z=None):
        """The primal-test rows of the operator on primal columns U and dual
        columns Z (one column per slab; Z=None for a zero dual part): the
        measurement mass, the primal stabilizers, the adjoint of the wave
        operator on Z and the bidirectional interface jump terms."""
        Yp = self.Momega @ U + self.Sh @ U
        if Z is not None:
            Yp += self.A_pd_T @ Z
        Yp[self.trace] += self.trace_jumps(U[self.trace])
        return Yp

    def trace_jumps(self, X):
        """The interface jump terms of A on the trace rows, from the primal
        traces X (rows trace, one column per slab): each slab's end traces
        E take W E minus W^T of the next slab's start traces S, its start
        traces take W S minus W of the end traces of the slab before."""
        W, r = self.jump_weight, self.n_end
        E, S = X[:r], X[r:]
        Y = np.zeros(X.shape)
        # column n is slab n, so the later slab of each interface is [:, 1:]
        WE = W @ E[:, :-1]
        Y[:r, :-1] = WE - self.jump_weight_T @ S[:, 1:]
        Y[r:, 1:] = W @ S[:, 1:] - WE
        return Y

    # -- right-hand side -------------------------------------------------

    def assemble_rhs(self, u_omega):
        """Measurement data tested against w1 over the measurement region on
        every slab, by space-time quadrature.  u_omega(t, x) is called once,
        on the array of quadrature times t (one per row, shape (times, 1, 1))
        and the array x of spatial quadrature points on the marked elements.
        """
        rule = gauss_rule(DATA_QUADRATURE_POINTS)
        N, dt, h = self.n_slabs, self.config.dt, self.mesh.h
        space = self.primal
        elems = np.flatnonzero(self.data)
        xq = self.mesh.vertices[elems, None] + h * rule.points
        taus = ((np.arange(N) * dt)[:, None] + dt * rule.points).ravel()
        f = np.broadcast_to(u_omega(taus[:, None, None], xq),
                            taus.shape + xq.shape)
        # (f, phi_i) on each marked element, then summed into the nodal dofs
        local = (rule.weights * h * f) @ space.xbasis.eval(rule.points)
        dofs = element_dofs(self.mesh, space.degree_x)[elems]
        loads = np.zeros((f.shape[0], space.n_x))
        np.add.at(loads, (slice(None), dofs), local)
        loads = loads.reshape(N, rule.n_points, space.n_x)
        psi = space.tbasis.eval(rule.points)
        blocks = np.einsum("q,qm,nqj->nmj", dt * rule.weights, psi, loads)
        b = np.zeros(self.ndof)
        self.slab_view(b)[:, : space.n_field] = blocks.reshape(N, space.n_field)
        return b

    # -- global matrix, dense oracle and norms ---------------------------

    def global_matrix(self):
        """The global matrix as one CSR matrix, placed over the whole time
        domain at once: the slab block on every slab, the full jump blocks
        plus on every slab but the first and minus on every slab but the
        last, -cross below the diagonal (rows on the later slab of each
        interface) and -cross^T above it, each jump block padded with zeros
        on the dual pair.  The terms are summed in that order."""
        N = self.n_slabs
        slab = sp.bmat([[self.Momega + self.Sh, self.A_pd_T],
                        [self.A_pd, -self.Sstar]])
        zero = sp.csr_matrix((self.n_dual, self.n_dual))
        P, Mm, C = (sp.block_diag((self.jump[name], zero))
                    for name in ("plus", "minus", "cross"))
        # 0/1 diagonals, not products of shifted identities: scipy refuses
        # the empty dia product of those at N = 1
        slabs = np.arange(N)
        after_first = sp.diags((slabs >= 1).astype(float))
        before_last = sp.diags((slabs <= N - 2).astype(float))
        kron = partial(sp.kron, format="csr")
        return (kron(sp.eye(N), slab) + kron(after_first, P)
                + kron(before_last, Mm) - kron(sp.eye(N, k=-1), C)
                - kron(sp.eye(N, k=1), C.T))

    def dense_matrix(self):
        """global_matrix as a dense array; debug oracle for small instances
        only."""
        if self.ndof > DENSE_DOF_LIMIT:
            raise ValueError(
                f"dense assembly refused for {self.ndof} dofs "
                f"(limit {DENSE_DOF_LIMIT})"
            )
        return self.global_matrix().toarray()

    def triple_norm(self, x):
        """Stabilized energy norm split into its four contributions."""
        U, Z = self._split(x)
        X = U[self.trace]
        sh2 = np.vdot(U, self.Sh @ U)
        om2 = np.vdot(U, self.Momega @ U)
        ds2 = np.vdot(Z, self.Sstar @ Z)
        jm2 = np.vdot(X, self.trace_jumps(X))
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
