"""Slab-marching preconditioners for the coupled space-time system.

All preconditioners are linear maps r -> x built from banded LU
factorizations (LAPACK gbtrf) of per-slab blocks.  A slab block couples
only dofs whose spatial nodes lie at most two elements apart, so once its
dofs are sorted by spatial node position (all temporal modes, fields and
both pairs of one node side by side) it is banded with a bandwidth
independent of the mesh.  On a uniform mesh every interior slab shares one
factorization; the first slab differs because no interface jump terms
reach it.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .slab_forms import (
    SlabSpace,
    _tensor_block,
    assemble_A,
    assemble_dfb_extras,
    assemble_dual_stabilizer,
    point_matrix,
)

__all__ = [
    "BlockJacobi",
    "MonolithicForward",
    "ForwardBackwardSplit",
    "build_preconditioner",
]

# columns per multi-right-hand-side solve when a defect builds its trace
# blocks (_trace_solves): a few, because each solve makes three slab-by-chunk
# temporaries that the allocator may keep resident once freed (after the
# build at gcc1d k=2 N=48, 64 columns left 3.6 MiB resident beside the
# 4.5 MiB inverse, 8 left 0.3 MiB, in the same build time)
TRACE_SOLVE_CHUNK = 8


def _node_order(*spaces):
    """Permutation sorting the dofs of the concatenated field pairs of
    spaces by spatial node position.

    Within a field block, dof m * n_x + i sits at node i / degree_x (in
    element lengths), so spaces of different spatial degrees interleave by
    position; the sort is stable, so ties keep their block order.
    """
    keys = [np.tile(np.arange(s.n_x) / s.degree_x, 2 * s.n_modes)
            for s in spaces]
    return np.argsort(np.concatenate(keys), kind="stable")


class _BandLU:
    """LU factorization of one slab block, banded after the symmetric
    permutation perm (rows and columns both reordered by it)."""

    def __init__(self, matrix, perm, label):
        n = matrix.shape[0]
        self.perm = perm
        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n)
        coo = matrix.tocoo()
        cols = inv[coo.col]
        offset = inv[coo.row] - cols
        self.kl = int(offset.max(initial=0))
        self.ku = int(-offset.min(initial=0))
        # LAPACK band storage, Fortran order, with kl extra rows on top
        # for the fill-in: entry (i, j) at row kl + ku + i - j of column j
        # (bincount sums duplicate entries)
        ldab = 2 * self.kl + self.ku + 1
        ab = np.bincount(cols * ldab + self.kl + self.ku + offset,
                         weights=coo.data, minlength=n * ldab)
        self.lu, self.piv, info = dgbtrf(ab.reshape(n, ldab).T, self.kl,
                                         self.ku, overwrite_ab=True)
        if info > 0:
            raise ValueError(f"singular slab system ({label}): zero pivot "
                             f"in column {info} of {n}")
        if info < 0:
            raise RuntimeError(f"dgbtrf: illegal value in argument {-info}")

    @property
    def band_bytes(self):
        """Bytes of the LU band, n (2 kl + ku + 1) doubles: fixed by the
        block's pattern and perm, so known before dgbtrf runs."""
        return 8 * len(self.perm) * (2 * self.kl + self.ku + 1)

    def solve(self, b, trans=0):
        """Solution of the block (trans=0) or its transpose (trans=1)
        against b, one right-hand side per column."""
        x, _ = dgbtrs(self.lu, self.kl, self.ku, b[self.perm], self.piv,
                      trans=trans, overwrite_b=True)
        out = np.empty_like(x)
        out[self.perm] = x
        return out


# the temporal factor that makes an assembled block one tensor term
_WHOLE = np.ones((1, 1))


def _slab_block(system, A, Sstar, plus=None):
    """The slab-diagonal block [[Sh + Momega (+ plus), A^T], [A, -Sstar]]
    of a sweep whose dual pair is tested by A and Sstar, in COO form, as
    _BandLU reads it."""
    diag_pp = system.Sh + system.Momega
    if plus is not None:
        diag_pp = diag_pp + plus
    sizes = (system.n_primal, Sstar.shape[0])
    return _tensor_block((sizes, sizes), [
        (0, 0, 1.0, _WHOLE, diag_pp), (0, 1, 1.0, _WHOLE, A.T),
        (1, 0, 1.0, _WHOLE, A), (1, 1, -1.0, _WHOLE, Sstar)], format="coo")


def _march(R, lus, coupling, trans=0):
    """Block substitution down the rows of R: row n solves lus[n] (with
    trans) against R[n] plus coupling applied to the row solved just
    before it, one band solve per slab.

    mf and ml march with this rather than with _Sweep's carry, whose
    rounding differs: a carry on mf moved the gcc1d k=2 N=24 error norms
    1.5e-4 relative, past the benchmark's 1e-4 gate on them, which tests
    rounding there (FOUND in CHANGES.md)."""
    X = np.empty(R.shape)
    for n, lu in enumerate(lus):
        rhs = R[n] if n == 0 else R[n] + coupling @ X[n - 1]
        X[n] = lu.solve(rhs, trans)
    return X


class _Sweep:
    """The block substitution of _march over the whole time domain at once:
    row n of R (slabs in march order) solves lus[n] (with trans) against
    R[n] plus coupling applied to the row solved just before it.

    The coupling reads only its nonzero columns c (the carried values) of
    the row before, so with Y the band solves of R alone, one
    multi-right-hand-side solve per run of rows that share an LU, row n of
    the solution is X[n] = Y[n] + K X_c[n - 1].  K = lu^-1 C[:, c] is built
    once for the LU of each coupled row (every row but the first).  The
    carried values follow their own recurrence X_c[n] = Y_c[n] +
    K_c X_c[n - 1], with K_c the rows c of K, one |c|-square product per
    row; then one product with K per run adds the carry to all its rows.
    """

    def __init__(self, lus, coupling, trans=0):
        self.trans = trans
        # runs of consecutive rows that share one LU, as [lu, start, stop]
        self._runs = []
        for n, lu in enumerate(lus):
            if self._runs and self._runs[-1][0] is lu:
                self._runs[-1][2] = n + 1
            else:
                self._runs.append([lu, n, n + 1])
        C = sp.csc_matrix(coupling)
        self.carried = np.flatnonzero(np.diff(C.indptr))
        self._n = C.shape[0]
        self._n_coupled = len({id(lu) for lu in lus[1:]})
        # K and K_c, once for the LU of each coupled row
        C_c = C[:, self.carried].toarray()
        self._K = {}
        for lu in lus[1:]:
            if id(lu) not in self._K:
                K = lu.solve(C_c, trans)
                self._K[id(lu)] = (K, K[self.carried])
        self._K_c = [self._K[id(lu)][1] for lu in lus[1:]]

    @property
    def carry_bytes(self):
        """Bytes of K and K_c for each LU of a coupled row, (n + |c|) |c|
        doubles: fixed by the block size and the coupling's nonzero
        columns, so known before the solves that build them."""
        c = len(self.carried)
        return 8 * self._n_coupled * (self._n + c) * c

    def __call__(self, R):
        X = np.empty(R.shape)
        for lu, start, stop in self._runs:
            X[start:stop] = lu.solve(R[start:stop].T, self.trans).T
        if not self._K_c:
            return X
        X_c = X.take(self.carried, axis=1)
        for n, K_c in enumerate(self._K_c, start=1):
            X_c[n] += K_c @ X_c[n - 1]
        for lu, start, stop in self._runs:
            start = max(start, 1)
            if start < stop:
                K = self._K[id(lu)][0]
                X[start:stop] += X_c[start - 1 : stop - 1] @ K.T
        return X


def _trace_solves(lu, T, rows, B):
    """Solutions of lu on the trace rows T for the right-hand sides that
    hold the columns of the sparse B on rows and zeros elsewhere, as
    (column slice, solutions) pairs of TRACE_SOLVE_CHUNK columns."""
    B = sp.csc_matrix(B, copy=True)
    B.sum_duplicates()
    for c in range(0, B.shape[1], TRACE_SOLVE_CHUNK):
        stop = min(c + TRACE_SOLVE_CHUNK, B.shape[1])
        # the entries of the chunk's columns, straight from the CSC arrays
        ptr = B.indptr[c : stop + 1]
        at = slice(ptr[0], ptr[-1])
        rhs = np.zeros((len(lu.perm), stop - c))
        rhs[rows[B.indices[at]], np.repeat(np.arange(stop - c),
                                           np.diff(ptr))] = B.data[at]
        yield slice(c, stop), lu.solve(rhs)[T]


class _JumpDefect:
    """The interface jump terms that a preconditioner M leaves out of the
    matrix it inverts: the upper half (tested on the earlier slab of each
    interface) and, with lower, the lower half too.  They are the whole
    defect E = A - M^-1, so A M = I + E M, and E is nonzero only on the
    primal-test rows these terms reach.

    rows holds the global indices of those rows, in ascending order.  A call
    with z returns (E z) on them; em(v) returns (E M v) on them for a v that
    lives on them, given by its values there.  On rows, E is A's whole jump
    action (the lower half reaches only start-time rows, which rows omit
    without lower), so a call with z ends in system.trace_jumps.

    M solves the slab blocks first (slab 0) and interior (every other
    slab), both _BandLU.  Without lower it is the forward sweep that keeps
    the lower half: interior holds the plus term, and each slab takes the
    cross term of the slab before it.  With lower it is independent slab
    solves.  E reads, and the sweep passes on, only each slab's traces
    (system.trace).  So em needs no sweep (the interface reduction of Saad,
    Iterative Methods for Sparse Linear Systems, ch. 14), only the inverse G
    of interior on the traces, or blocks made of it, which em builds from
    solves with interior on its first call.  With lower, em applies G to
    the traces of all slabs at once and ends in trace_jumps.  Without
    lower, the jump blocks are folded into G, so that em works on the
    r = system.n_end end traces alone.  With c the cross block, cT its
    transpose on the traces and V_n the end traces of v on slab n, the
    end traces of M v are X_0 from one band solve on the first slab and
    X_n = G_ee V_n + P X_(n-1) after it, where G_ee is G[:r, :r] and
    P = G[:r, r:] c carries them from slab to slab; then (E M v) on slab n
    is D [X_n; V_(n+1)] with D = [minus - cT G[r:, r:] c, -cT G[r:, :r]].
    G_ee, P and D hold 4 r^2 doubles (trace_bytes), as many as G, which is
    never formed.
    """

    def __init__(self, system, lower, first, interior):
        self.system, self.lower = system, lower
        self._first, self._interior = first, interior
        T, r = system.trace, system.n_end
        reach = np.zeros((system.n_slabs, system.n_primal), dtype=bool)
        reach[:-1, T[:r]] = True
        if lower:
            reach[1:, T[r:]] = True
        slab, row = np.nonzero(reach)
        self.rows = slab * system.slab_size + row
        # the same rows in the (len(trace), n_slabs) array of traces
        at_trace = np.empty(system.n_primal, dtype=np.intp)
        at_trace[T] = np.arange(len(T))
        self._trace_at = at_trace[row] * system.n_slabs + slab

    def __call__(self, z):
        sys = self.system
        X = sys.slab_view(z)[:, sys.trace].T
        return sys.trace_jumps(X).ravel()[self._trace_at]

    @property
    def trace_bytes(self):
        """Bytes of the arrays that em builds on its first call and keeps
        (none while rows is empty): G, or G_ee, P and D without lower."""
        r, t = self.system.n_end, len(self.system.trace)
        return 8 * (t * t if self.lower else 4 * r * r)

    @cached_property
    def _traces(self):
        """G with lower, else (G_ee, P, D), from solves with interior in
        chunks of columns.  Without lower, G is never formed: the end unit
        columns give G[:, :r], and the columns of cross on the start rows
        give G[:, r:] c, each written into the blocks chunk by chunk."""
        lu, sys = self._interior, self.system
        T, r = sys.trace, sys.n_end
        if self.lower:
            G = np.empty((len(T), len(T)))
            for cols, S in _trace_solves(lu, T, T, sp.identity(len(T))):
                G[:, cols] = S
            return G
        blocks = sys.trace_jump
        cross_T = blocks["cross_T"]
        G_ee, P = np.empty((r, r)), np.empty((r, r))
        D = np.empty((r, 2 * r))
        D[:, :r] = blocks["minus"].toarray()
        for cols, S in _trace_solves(lu, T, T[:r], sp.identity(r)):
            G_ee[:, cols] = S[:r]
            D[:, r + cols.start : r + cols.stop] = -(cross_T @ S[r:])
        for cols, S in _trace_solves(lu, T, T[r:], blocks["cross"]):
            P[:, cols] = S[:r]
            D[:, cols] -= cross_T @ S[r:]
        return G_ee, P, D

    def em(self, v):
        """(E M v) on rows, for the v given by its values on rows."""
        if len(v) == 0:
            return np.zeros(0)
        sys = self.system
        T, r, N = sys.trace, sys.n_end, sys.n_slabs
        if self.lower:
            V = np.zeros((len(T), N))
            V.ravel()[self._trace_at] = v
            # the traces of M v, one column per slab, end rows first
            return sys.trace_jumps(self._traces @ V).ravel()[self._trace_at]
        G_ee, P, D = self._traces
        # rows are all r end rows of slabs 0..N-2, slab by slab, in trace
        # order: v is their end traces V, one row per slab
        V = v.reshape(N - 1, r)
        # W stacks, row n, the end traces X[n] of M v on slab n beside
        # those of v on slab n + 1 (zero on the last slab, off rows)
        W = np.empty((N - 1, 2 * r))
        W[:-1, r:] = V[1:]
        W[-1, r:] = 0.0
        X = W[:, :r]
        # the first slab's block has no plus term: one band solve there
        rhs = np.zeros(len(self._first.perm))
        rhs[T[:r]] = V[0]
        X[0] = self._first.solve(rhs)[T[:r]]
        X[1:] = V[1:] @ G_ee.T
        for n in range(1, N - 1):
            X[n] += X[n - 1] @ P.T
        return (W @ D.T).ravel()


class BlockJacobi:
    """Independent per-slab solves of the slab-diagonal block, with the
    interface jump terms dropped entirely.

    All four jump terms are the defect of this inverse: defect.rows are the
    rows they reach, and defect(z) is their action on z there.
    """

    def __init__(self, system):
        self.system = system
        self.lu = _BandLU(_slab_block(system, system.A_pd, system.Sstar),
                          _node_order(system.primal, system.dual),
                          "slab-diagonal block")
        self.defect = _JumpDefect(system, True, self.lu, self.lu)

    def apply(self, r):
        # one multi-right-hand-side solve, a column per slab
        return self.lu.solve(self.system.slab_view(r).T).T.ravel()


def _spatial_embedding(mesh, fine, coarse):
    """Coefficients of coarse spatial functions expressed in the fine nodal
    basis (same mesh, lower degree): the coarse basis evaluated at the fine
    nodes, each shared vertex node taken from the element to its right."""
    kf = fine.degree
    nodes = np.arange(kf * mesh.n_elems + 1)
    elems = np.minimum(nodes // kf, mesh.n_elems - 1)
    return point_matrix(mesh, coarse, elems, fine.nodes[nodes - kf * elems])


class MonolithicForward:
    """Forward slab sweep on the system with the interface jumps relaxed to
    their upstream-tested half.

    The relaxed system is block-lower-triangular over slabs, so one forward
    substitution with per-slab monolithic (primal + dual) solves inverts it.
    The sweep may use a reduced dual order internally (the "light" variant
    uses the minimal orders (1, 0)); the dual part of the output is then
    recovered exactly from the dual-test rows, which are slab-local, so the
    map stays invertible and all variants precondition the same system.

    At the system's own dual orders the sweep inverts the system up to the
    upper jump terms it relaxed: defect.rows are the rows they reach, and
    defect(z) is their action on z there.  A reduced sweep has no defect.
    """

    def __init__(self, system, dual_orders=None):
        self.system = system
        cfg = system.config
        system_orders = (cfg.kstar, cfg.qstar)
        orders = system_orders if dual_orders is None else tuple(dual_orders)
        if orders == system_orders:
            sweep_dual, A_sw, Sstar_sw = system.dual, system.A_pd, system.Sstar
            self.embed = None
        else:
            kc, qc = orders
            if kc > cfg.kstar or qc > cfg.qstar:
                raise ValueError(
                    f"sweep dual orders {orders} exceed the system's "
                    f"{system_orders}"
                )
            sweep_dual = SlabSpace(system.mesh, kc, qc, cfg.dt)
            A_sw = assemble_A(system.primal, sweep_dual)
            Sstar_sw = assemble_dual_stabilizer(sweep_dual)
            Ex = _spatial_embedding(system.mesh, system.dual.xbasis,
                                    sweep_dual.xbasis)
            Et = sweep_dual.tbasis.eval(system.dual.tbasis.nodes)
            self.embed = _tensor_block(
                ((system.dual.n_field,) * 2, (sweep_dual.n_field,) * 2),
                [(0, 0, 1.0, Et, Ex), (1, 1, 1.0, Et, Ex)])
            self.embed_T = self.embed.T.tocsr()
            self.sstar_lu = _BandLU(system.Sstar, _node_order(system.dual),
                                    "dual stabilizer")

        perm = _node_order(system.primal, sweep_dual)
        lu_interior = _BandLU(
            _slab_block(system, A_sw, Sstar_sw, system.jump["plus"]), perm,
            "interior slab")
        self.lus = ([_BandLU(_slab_block(system, A_sw, Sstar_sw), perm,
                             "first slab")]
                    + [lu_interior] * (system.n_slabs - 1))
        # the upstream primal trace couples into the primal-test rows only:
        # the cross block padded with zeros to the sweep block
        n_sweep = system.n_primal + sweep_dual.n_pair
        self.coupling = system.jump["cross"].copy()
        self.coupling.resize(n_sweep, n_sweep)
        if self.embed is None:
            self.defect = _JumpDefect(system, False, self.lus[0], lu_interior)

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        n_p = sys.n_primal
        if self.embed is None:
            return _march(R, self.lus, self.coupling).ravel()
        R_y = R[:, n_p:]
        R_sweep = np.hstack((R[:, :n_p], (self.embed_T @ R_y.T).T))
        U = _march(R_sweep, self.lus, self.coupling)[:, :n_p]
        # exact dual part from the slab-local dual-test rows, all slabs at once
        Z = self.sstar_lu.solve(sys.A_pd @ U.T - R_y.T)
        return np.hstack((U, Z.T)).ravel()


class ForwardBackwardSplit:
    """Two sweeps over the slab-local primal operator enriched with the
    observer and lateral-boundary terms plus upwind jump couplings.

    Step 1 marches forward in time solving for the primal pair against the
    dual-test rows of the residual.  Step 2 forms the remaining primal-test
    residual and marches backward with the transposed blocks to recover the
    dual pair.  Both sweeps run over the whole time domain at once
    (_Sweep), and neither applies the system's operator.
    """

    def __init__(self, system, lam):
        self.system = system
        cfg = system.config
        if (cfg.kstar, cfg.qstar) != (cfg.k, cfg.q):
            raise ValueError(
                "the forward-backward split requires equal primal and dual "
                "orders"
            )
        extras = assemble_dfb_extras(system.primal, system.dual, system.data, lam)
        G0 = system.A_pd + extras["observer"] + extras["nitsche"]
        Gint = G0 + extras["coupling_diag"]
        coupling = extras["coupling_sub"]
        # equal orders: the dual-test rows sort like the primal columns
        perm = _node_order(system.primal)
        lu_interior = _BandLU(Gint, perm, "interior slab, forward sweep")
        self.lus = ([_BandLU(G0, perm, "first slab, forward sweep")]
                    + [lu_interior] * (system.n_slabs - 1))
        self.forward = _Sweep(self.lus, coupling)
        # the backward sweep is the transposed march on the reversed slab order
        self.backward = _Sweep(self.lus[::-1], coupling.T, trans=1)

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        n_p = sys.n_primal
        x = np.empty(sys.ndof)
        X = sys.slab_view(x)
        X[:, :n_p] = self.forward(R[:, n_p:])
        # the primal-test rows of A on (U, 0): the measurement mass,
        # stabilizer and jump terms of U, as SpaceTimeSystem.apply sums them
        U = np.ascontiguousarray(X[:, :n_p].T)
        AU = sys.Momega @ U + sys.Sh @ U
        AU[sys.trace] += sys.trace_jumps(U[sys.trace])
        rest = R[:, :n_p] - AU.T
        X[:, n_p:] = self.backward(rest[::-1])[::-1]
        return x


def build_preconditioner(system, kind):
    """The preconditioner of the given kind, or None for "none"."""
    if kind == "none":
        return None
    if kind == "block":
        return BlockJacobi(system)
    if kind == "mf":
        return MonolithicForward(system)
    if kind == "ml":
        return MonolithicForward(system, dual_orders=(1, 0))
    if kind == "dfb":
        return ForwardBackwardSplit(system, system.config.resolved_lambda())
    raise ValueError(f"unknown preconditioner kind: {kind!r}")
