"""Slab-marching preconditioners for the coupled space-time system.

All preconditioners are linear maps r -> x built from banded LU
factorizations (LAPACK gbtrf) of per-slab blocks.  A slab block couples
only dofs whose spatial nodes lie at most two elements apart, so once its
dofs are sorted by spatial node position (all temporal modes, fields and
both pairs of one node side by side) it is banded with a bandwidth
independent of the mesh.  On a uniform mesh every interior slab shares one
factorization; the first slab differs because no interface jump terms
reach it.  A sweep assembles the first slab's block alone: its band (_Band)
is copied and the interior's one extra term added to the copy, so the
interior block is never assembled.

The forms a preconditioner needs beside the system's own blocks come
from slab_forms' public functions as Triplets (numpy index and value
arrays): ml's wave operator, dual stabilizer and degree embedding on its
reduced dual pair, and dfb's extra terms; the system's blocks are read
back from its CSR matrices (Triplets.of).  Blocks reach _Band, and
couplings _Sweep, as Triplets, never as scipy matrices: a slab block is
the entries of its parts side by side, which the band sums.  A scipy CSR
matrix is made only for what an apply reads: mf's and ml's coupling and
ml's embed and embed_T.
"""

import copy
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .slab_forms import (
    SlabSpace,
    Triplets,
    assemble_A,
    assemble_dfb_extras,
    assemble_dual_stabilizer,
    assemble_embedding,
)

__all__ = [
    "BlockJacobi",
    "MonolithicForward",
    "ForwardBackwardSplit",
    "build_preconditioner",
]

# columns per multi-right-hand-side solve when a defect builds its trace
# blocks (_trace_solves), all solved in one reused buffer
TRACE_SOLVE_CHUNK = 64


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


class _BandShape:
    """The band of a slab block after the symmetric permutation perm (rows
    and columns both reordered by it), inv its inverse: kl sub- and ku
    superdiagonals, fixed by the block's pattern."""

    @property
    def _ldab(self):
        # LAPACK's band rows, with kl extra rows for the fill-in
        return 2 * self.kl + self.ku + 1

    @property
    def band_bytes(self):
        """Bytes of the band, n (2 kl + ku + 1) doubles, as dgbtrf keeps it
        for the LU."""
        return 8 * len(self.perm) * self._ldab


class _Band(_BandShape):
    """One slab block in LAPACK band storage, from its pattern (the
    pattern step: perm, inv, kl, ku and so band_bytes) and its values.

    The block comes as Triplets; entries at one place are summed in their
    order, as the sparse sum of the parts they come from would sum them
    (a sum that cancels to zero, which that sum would drop, still counts
    for kl and ku).
    ab is the band, Fortran order, with kl extra rows on top for the
    fill-in: entry (i, j) of the permuted block at row kl + ku + i - j of
    column j.  _BandLU factors ab in place and takes it, so a band is
    copied (plus) before it is factored.
    """

    def __init__(self, block, perm):
        n = block.shape[0]
        self.perm = perm
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[perm] = np.arange(n)
        cols, offset = self._offsets(block)
        self.kl = int(offset.max(initial=0))
        self.ku = int(-offset.min(initial=0))
        # bincount sums the entries at one place in their order
        self.ab = np.bincount(self._at(cols, offset), weights=block.vals,
                              minlength=n * self._ldab).reshape(n, -1).T

    def _offsets(self, block):
        """The permuted columns of the block's entries and their offsets,
        row minus column."""
        cols = self.inv[block.cols]
        return cols, self.inv[block.rows] - cols

    def _at(self, cols, offset):
        """Positions in the flat (Fortran-order) band of the entries at
        permuted columns cols with the given offsets."""
        return cols * self._ldab + self.kl + self.ku + offset

    def plus(self, term):
        """A copy of this band with the block term (Triplets) added, which
        must lie inside the band; entry by entry, each sum is the one the
        sparse sum of the two blocks would make."""
        cols, offset = self._offsets(term)
        if offset.max(initial=0) > self.kl or -offset.min(initial=0) > self.ku:
            raise ValueError("term outside the band")
        band = copy.copy(self)
        band.ab = self.ab.copy(order="F")
        np.add.at(band.ab.reshape(-1, order="F"), self._at(cols, offset),
                  term.vals)
        return band


class _BandLU(_BandShape):
    """LU factorization of one slab block from its _Band, whose perm, inv,
    kl and ku it keeps; label names the block in the error for a zero
    pivot."""

    def __init__(self, band, label):
        self.perm, self.inv = band.perm, band.inv
        self.kl, self.ku = band.kl, band.ku
        ab, band.ab = band.ab, None
        self.lu, self.piv, info = dgbtrf(ab, self.kl, self.ku,
                                         overwrite_ab=True)
        if info > 0:
            raise ValueError(f"singular slab system ({label}): zero pivot "
                             f"in column {info} of {len(self.perm)}")
        if info < 0:
            raise RuntimeError(f"dgbtrf: illegal value in argument {-info}")

    def solve(self, b, trans=0):
        """Solution of the block (trans=0) or its transpose (trans=1)
        against b, one right-hand side per column."""
        x, _ = dgbtrs(self.lu, self.kl, self.ku, b[self.perm], self.piv,
                      trans=trans, overwrite_b=True)
        out = np.empty_like(x)
        out[self.perm] = x
        return out


def _slab_block(system, A, Sstar):
    """The slab-diagonal block [[Sh + Momega, A^T], [A, -Sstar]] of a sweep
    whose dual pair is tested by A and Sstar (Triplets), as the triplets
    _Band reads: the entries of Sh, then of Momega, which the band sums
    place by place as their sparse sum would, A's entries with rows and
    columns swapped, A's, and Sstar's negated."""
    n_p = system.n_primal
    n = n_p + Sstar.shape[0]
    return Triplets.concatenated((n, n), [
        Triplets.of(system.Sh), Triplets.of(system.Momega),
        (A.cols, A.rows + n_p, A.vals), (A.rows + n_p, A.cols, A.vals),
        (Sstar.rows + n_p, Sstar.cols + n_p, -Sstar.vals)])


def _on_traces(system, rows, cols, size):
    """The jump block W (system.jump_weight) on the given trace rows and
    columns of a size-square block, as Triplets; canonical, since rows
    and cols are ascending."""
    W = Triplets.of(system.jump_weight)
    return Triplets(rows[W.rows], cols[W.cols], W.vals, (size, size))


def _sweep_lus(first, term, n_slabs, suffix=""):
    """The LUs of a sweep's slabs in march order: first, the band of the
    first slab's block, and for every later slab the interior one, that
    band plus the sparse block term.  The interior band is factored first,
    and not at all for one slab; the labels are "first slab" and "interior
    slab", with suffix."""
    if n_slabs == 1:
        return [_BandLU(first, "first slab" + suffix)]
    interior = _BandLU(first.plus(term), "interior slab" + suffix)
    return [_BandLU(first, "first slab" + suffix)] + [interior] * (n_slabs - 1)


def _march(R, lus, coupling):
    """Block substitution down the rows of R: row n solves lus[n] against
    R[n] plus coupling applied to the row solved just before it, one band
    solve per slab.

    mf and ml march with this rather than with _Sweep's carry, whose
    rounding differs: a carry on mf moved the gcc1d k=2 N=24 error norms
    1.5e-4 relative, past the benchmark's 1e-4 gate on them, which tests
    rounding there (FOUND in CHANGES.md)."""
    X = np.empty(R.shape)
    for n, lu in enumerate(lus):
        rhs = R[n] if n == 0 else R[n] + coupling @ X[n - 1]
        X[n] = lu.solve(rhs)
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
        # the columns where the coupling (Triplets) stores an entry
        C = coupling
        self.carried = np.flatnonzero(np.bincount(C.cols, minlength=C.shape[1]))
        self._n = C.shape[0]
        self._n_coupled = len({id(lu) for lu in lus[1:]})
        # K and K_c, once for the LU of each coupled row
        C_c = np.zeros((C.shape[0], len(self.carried)))
        C_c[C.rows, np.searchsorted(self.carried, C.cols)] = C.vals
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
    """Solutions of lu on the rows T for the right-hand sides that hold the
    columns of the dense B on rows and zeros elsewhere, as (column slice,
    solutions) pairs of TRACE_SOLVE_CHUNK columns.

    The chunks are solved in place, one after the other, in one
    Fortran-order buffer in the band's own order: the right-hand sides
    are written at lu.inv[rows], and the solutions read at lu.inv[T]."""
    at_rows, at_T = lu.inv[rows], lu.inv[T]
    buffer = np.empty((len(lu.perm), min(TRACE_SOLVE_CHUNK, B.shape[1])),
                      order="F")
    for c in range(0, B.shape[1], TRACE_SOLVE_CHUNK):
        cols = slice(c, min(c + TRACE_SOLVE_CHUNK, B.shape[1]))
        rhs = buffer[:, : cols.stop - c]
        rhs.fill(0.0)
        rhs[at_rows] = B[:, cols]
        x, _ = dgbtrs(lu.lu, lu.kl, lu.ku, rhs, lu.piv, overwrite_b=True)
        yield cols, x[at_T]


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
    r = system.n_end end traces alone.  With W the jump block on the traces
    (system.jump_weight), W^T its transpose and V_n the end traces of v on
    slab n, the end traces of M v are X_0 from one band solve on the first
    slab and X_n = G_ee V_n + P X_(n-1) after it, where G_ee is G[:r, :r]
    and P = G[:r, r:] W carries them from slab to slab; then (E M v) on
    slab n is D [X_n; V_(n+1)] with D = [W - W^T G[r:, r:] W,
    -W^T G[r:, :r]].
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
        columns give G[:, :r], and the columns of W on the start rows
        give G[:, r:] W, each written into the blocks chunk by chunk."""
        lu, sys = self._interior, self.system
        T, r = sys.trace, sys.n_end
        if self.lower:
            G = np.empty((len(T), len(T)))
            for cols, S in _trace_solves(lu, T, T, np.eye(len(T))):
                G[:, cols] = S
            return G
        W, W_T = sys.jump_weight, sys.jump_weight_T
        G_ee, P = np.empty((r, r)), np.empty((r, r))
        D = np.empty((r, 2 * r))
        # the loop below updates D[:, :r], so the start rows' right-hand
        # sides are a copy of W
        W_dense = W.toarray()
        D[:, :r] = W_dense
        for cols, S in _trace_solves(lu, T, T[:r], np.eye(r)):
            G_ee[:, cols] = S[:r]
            D[:, r + cols.start : r + cols.stop] = -(W_T @ S[r:])
        for cols, S in _trace_solves(lu, T, T[r:], W_dense):
            P[:, cols] = S[:r]
            D[:, cols] -= W_T @ S[r:]
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
        self.lu = _BandLU(
            _Band(_slab_block(system, Triplets.of(system.A_pd),
                              Triplets.of(system.Sstar)),
                  _node_order(system.primal, system.dual)),
            "slab-diagonal block")
        self.defect = _JumpDefect(system, True, self.lu, self.lu)

    def apply(self, r):
        # one multi-right-hand-side solve, a column per slab
        return self.lu.solve(self.system.slab_view(r).T).T.ravel()


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
            sweep_dual = system.dual
            A_sw, Sstar_sw = (Triplets.of(system.A_pd),
                              Triplets.of(system.Sstar))
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
            E = assemble_embedding(system.dual, sweep_dual)
            self.embed, self.embed_T = E.tocsr(), E.transpose().tocsr()
            self.sstar_lu = _BandLU(
                _Band(Triplets.of(system.Sstar), _node_order(system.dual)),
                "dual stabilizer")

        # the interior block adds the jump term plus, W on the start
        # traces, and each slab's start traces take W of the end traces of
        # the slab before (cross): both are W placed on the traces
        T, r = system.trace, system.n_end
        n_sweep = system.n_primal + sweep_dual.n_pair
        self.lus = _sweep_lus(
            _Band(_slab_block(system, A_sw, Sstar_sw),
                  _node_order(system.primal, sweep_dual)),
            _on_traces(system, T[r:], T[r:], n_sweep), system.n_slabs)
        self.coupling = _on_traces(system, T[r:], T[:r], n_sweep).tocsr()
        if self.embed is None:
            self.defect = _JumpDefect(system, False, self.lus[0],
                                      self.lus[-1])

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
        extras = assemble_dfb_extras(system.primal, system.dual, system.data,
                                     lam)
        # G0 = (A_pd + observer) + nitsche, which the band sums place by
        # place as the sparse sum would
        G0 = Triplets.concatenated(system.A_pd.shape, [
            Triplets.of(system.A_pd), extras["observer"], extras["nitsche"]])
        coupling = extras["coupling_sub"]
        # equal orders: the dual-test rows sort like the primal columns;
        # the interior block adds coupling_diag
        self.lus = _sweep_lus(_Band(G0, _node_order(system.primal)),
                              extras["coupling_diag"], system.n_slabs,
                              ", forward sweep")
        self.forward = _Sweep(self.lus, coupling)
        # the backward sweep is the transposed march on the reversed slab order
        self.backward = _Sweep(self.lus[::-1], coupling.transpose(), trans=1)

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        n_p = sys.n_primal
        x = np.empty(sys.ndof)
        X = sys.slab_view(x)
        X[:, :n_p] = self.forward(R[:, n_p:])
        # the primal-test rows of A on (U, 0)
        AU = sys.primal_rows(np.ascontiguousarray(X[:, :n_p].T))
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
