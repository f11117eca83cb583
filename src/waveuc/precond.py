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

Each kind is one class with one algorithm, built from the system alone
(Cls(system)) through the table KINDS, and every one has apply(r):

- none (krylov.Identity) is no preconditioning: apply returns its
  argument.
- block (BlockJacobi) solves every slab at once against its slab-diagonal
  block; its defect (_BlockDefect) is all four jump terms.
- mf (MonolithicForward) marches forward slab by slab, one band solve per
  slab, at the system's own dual orders: each slab's start traces take W
  (system.jump_weight) of the end traces solved on the slab before; its
  defect (_SweepDefect) is the upper jump terms the march relaxes.
- ml (LightForward) sweeps at the light dual orders LIGHT_ORDERS over the
  whole time domain at once (_Sweep) and recovers the dual part from the
  slab-local dual-test rows.
- dfb (ForwardBackwardSplit) runs two _Sweeps, forward and backward, with
  the system's resolved lambda.

mf marches on the traces rather than on _Sweep because _Sweep's carry
rounds differently, and the benchmark's gcc-k2-mf N=24 error gate tests
that rounding (ROADMAP items 4 and 7).

The forms a preconditioner needs beside the system's own blocks come
from slab_forms' public functions as Triplets (numpy index and value
arrays): ml's wave operator, dual stabilizer and degree embedding on its
light dual pair, and dfb's extra terms; the system's blocks are read
back from its CSR matrices (Triplets.of).  Blocks reach _Band, and
couplings _Sweep, as Triplets, never as scipy matrices: a slab block is
the entries of its parts side by side, which the band sums.  A scipy CSR
matrix is made only for what an apply reads: ml's degree embedding, which
the apply reads transposed through its .T view (embed_T).  No transpose
is stored apart: the backward sweep reads its coupling with rows and
columns swapped, and mf's defect reads the system's jump_weight_T view.
"""

import copy
from functools import cached_property
from itertools import groupby

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .krylov import Identity
from .slab_forms import (
    SlabSpace,
    Triplets,
    assemble_A,
    assemble_dfb_extras,
    assemble_dual_stabilizer,
    assemble_embedding,
)

__all__ = [
    "KINDS",
    "BlockJacobi",
    "MonolithicForward",
    "LightForward",
    "ForwardBackwardSplit",
    "build_preconditioner",
]

# the dual orders (kstar, qstar) of ml's sweep, the minimal ones
LIGHT_ORDERS = (1, 0)
# columns per multi-right-hand-side solve when a defect builds its trace
# blocks (_BandLU.trace_solve), all solved in one reused buffer
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


class _Band:
    """One slab block in LAPACK band storage, from its pattern (the
    pattern step: perm, its inverse inv, kl sub- and ku superdiagonals and
    so band_bytes) and its values; perm reorders rows and columns both.

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

    @property
    def _ldab(self):
        # LAPACK's band rows, with kl extra rows for the fill-in
        return 2 * self.kl + self.ku + 1

    @property
    def band_bytes(self):
        """Bytes of the band, n (2 kl + ku + 1) doubles, as dgbtrf keeps it
        for the LU."""
        return 8 * len(self.perm) * self._ldab

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


class _BandLU:
    """LU factorization of one slab block from its _Band, whose perm, inv,
    kl, ku and band_bytes it keeps; label names the block in the error for
    a zero pivot."""

    def __init__(self, band, label):
        self.perm, self.inv = band.perm, band.inv
        self.kl, self.ku, self.band_bytes = band.kl, band.ku, band.band_bytes
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

    def trace_solve(self, T, rows, B):
        """Solutions on the rows T for the right-hand sides that hold the
        columns of the dense B on rows and zeros elsewhere, as a
        (len(T), B.shape[1]) array.

        The columns are solved TRACE_SOLVE_CHUNK at a time, one chunk after
        the other, in place in one Fortran-order buffer in the band's own
        order: the right-hand sides are written at inv[rows], and the
        solutions read at inv[T]."""
        at_rows, at_T = self.inv[rows], self.inv[T]
        m = B.shape[1]
        out = np.empty((len(T), m))
        buffer = np.empty((len(self.perm), min(TRACE_SOLVE_CHUNK, m)),
                          order="F")
        for c in range(0, m, TRACE_SOLVE_CHUNK):
            cols = slice(c, min(c + TRACE_SOLVE_CHUNK, m))
            rhs = buffer[:, : cols.stop - c]
            rhs.fill(0.0)
            rhs[at_rows] = B[:, cols]
            x, _ = dgbtrs(self.lu, self.kl, self.ku, rhs, self.piv,
                          overwrite_b=True)
            out[:, cols] = x[at_T]
        return out


def _carry(X, K):
    """Add K @ X[n - 1] to X[n] in place, for n = 1, 2, ... in row order:
    the slab-to-slab recurrence that _Sweep runs on its carried values and
    _SweepDefect.em on its end traces."""
    for n in range(1, len(X)):
        X[n] += K @ X[n - 1]


def _slab_block(system, dual, A, Sstar):
    """The slab-diagonal block [[Sh + Momega, A^T], [A, -Sstar]] of a sweep
    whose dual pair dual is tested by A and Sstar (Triplets), as a _Band:
    the entries of Sh, then of Momega, which the band sums place by place
    as their sparse sum would, A's entries with rows and columns swapped,
    A's, and Sstar's negated."""
    n_p = system.n_primal
    n = n_p + Sstar.shape[0]
    return _Band(Triplets.concatenated((n, n), [
        Triplets.of(system.Sh), Triplets.of(system.Momega),
        (A.cols, A.rows + n_p, A.vals), (A.rows + n_p, A.cols, A.vals),
        (Sstar.rows + n_p, Sstar.cols + n_p, -Sstar.vals)]),
        _node_order(system.primal, dual))


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


def _jump_weight_on(system, dual, cols):
    """The jump block W (system.jump_weight) on the start-trace rows and
    the trace columns cols of a slab whose dual pair is dual, as Triplets,
    canonical since both are ascending."""
    W, n = Triplets.of(system.jump_weight), system.n_primal + dual.n_pair
    return Triplets(system.trace[system.n_end:][W.rows], cols[W.cols],
                    W.vals, (n, n))


def _forward_sweep(system, dual, A, Sstar):
    """The LUs (_sweep_lus) of the forward sweep whose dual pair dual is
    tested by A and Sstar (Triplets): the interior block adds W on the
    start traces.  Each slab's start traces then take W of the end traces
    of the slab before, which ml's _Sweep carries and mf applies on the
    traces itself."""
    start = system.trace[system.n_end:]
    return _sweep_lus(_slab_block(system, dual, A, Sstar),
                      _jump_weight_on(system, dual, start), system.n_slabs)


class _Sweep:
    """Block substitution over the whole time domain at once: row n of R
    (slabs in march order) solves lus[n] against R[n] plus the coupling
    applied to the row solved just before it, both transposed with trans=1.

    The coupling reads only its nonzero columns c (the carried values) of
    the row before, so with Y the band solves of R alone, one
    multi-right-hand-side solve per run of rows that share an LU, row n of
    the solution is X[n] = Y[n] + K X_c[n - 1].  K = lu^-1 C[:, c] is built
    once for each run that holds a coupled row (every row but the first).
    The carried values follow their own recurrence X_c[n] = Y_c[n] +
    K_c X_c[n - 1] (_carry), with K_c the rows c of K, one |c|-square
    product per row; then one product with K per run adds the carry to all
    its rows.
    """

    def __init__(self, lus, coupling, trans=0):
        self.trans = trans
        # the coupling's entries (Triplets, read in any order), with rows
        # and columns swapped for its transpose
        rows, cols, shape = coupling.rows, coupling.cols, coupling.shape
        if trans:
            rows, cols, shape = cols, rows, shape[::-1]
        # the columns where it stores an entry
        self.carried = np.flatnonzero(np.bincount(cols, minlength=shape[1]))
        self._n = shape[0]
        C_c = np.zeros((self._n, len(self.carried)))
        C_c[rows, np.searchsorted(self.carried, cols)] = coupling.vals
        # runs of consecutive rows that share one LU, each with its K and
        # K_c, or None for the first row's alone
        self._runs, start = [], 0
        for lu, run in groupby(lus):
            stop = start + len(list(run))
            K = lu.solve(C_c, trans) if stop > 1 else None
            self._runs.append((lu, start, stop, K,
                               None if K is None else K[self.carried]))
            start = stop

    @property
    def carry_bytes(self):
        """Bytes of K and K_c for each run that holds a coupled row,
        (n + |c|) |c| doubles: fixed by the block size and the coupling's
        nonzero columns, so known before the solves that build them."""
        c = len(self.carried)
        coupled = sum(K is not None for _, _, _, K, _ in self._runs)
        return 8 * coupled * (self._n + c) * c

    def __call__(self, R):
        X = np.empty(R.shape)
        for lu, start, stop, _, _ in self._runs:
            X[start:stop] = lu.solve(R[start:stop].T, self.trans).T
        X_c = X.take(self.carried, axis=1)
        for _, start, stop, K, K_c in self._runs:
            if K is None:
                continue
            start = max(start, 1)
            _carry(X_c[start - 1 : stop], K_c)
            X[start:stop] += X_c[start - 1 : stop - 1] @ K.T
        return X


class _Defect:
    """The interface jump terms that a preconditioner M leaves out of the
    matrix it inverts.  They are the whole defect E = A - M^-1, so
    A M = I + E M, and E is nonzero only on the primal-test rows these
    terms reach (_reach).

    rows holds the global indices of those rows, in ascending order.  A call
    with z returns (E z) on them; on rows, E is A's whole jump action, so
    it ends in system.trace_jumps.  A subclass's em(v) returns (E M v) on
    them for a v that lives on them, given by its values there: E reads,
    and M passes on, only each slab's traces (system.trace), so em needs
    no sweep (the interface reduction of Saad, Iterative Methods for
    Sparse Linear Systems, ch. 14), only blocks of the inverse G on the
    traces of the slab block that lu factors (mf's interior one), which em
    builds from solves with lu on its first call (_traces).
    """

    def __init__(self, system, lu):
        self.system, self._lu = system, lu
        slab, row = np.nonzero(self._reach())
        self.rows = slab * system.slab_size + row
        # the same rows in the (len(trace), n_slabs) array of traces
        at_trace = np.empty(system.n_primal, dtype=np.intp)
        at_trace[system.trace] = np.arange(len(system.trace))
        self._trace_at = at_trace[row] * system.n_slabs + slab

    def _reach(self):
        """The rows the upper half of the jump terms (tested on the earlier
        slab of each interface) reaches: the end-time rows of every slab
        but the last, as an (n_slabs, n_primal) mask."""
        sys = self.system
        reach = np.zeros((sys.n_slabs, sys.n_primal), dtype=bool)
        reach[:-1, sys.trace[: sys.n_end]] = True
        return reach

    @property
    def trace_bytes(self):
        """Bytes of the blocks em builds on its first call and keeps (none
        while rows is empty): block's G on the traces and mf's G_ee, P and
        D are len(system.trace)^2 = 4 r^2 doubles either way."""
        return 8 * len(self.system.trace) ** 2

    def __call__(self, z):
        sys = self.system
        X = sys.slab_view(z)[:, sys.trace].T
        return sys.trace_jumps(X).ravel()[self._trace_at]


class _SweepDefect(_Defect):
    """The defect of mf's forward sweep, which keeps the lower half of the
    jump terms and leaves out the upper half: interior, the LU of every
    slab but the first, holds the plus term, and each slab takes the cross
    term of the slab before it.

    The jump blocks are folded into G, so that em works on the
    r = system.n_end end traces alone.  With W the jump block on the traces
    (system.jump_weight), W^T its transpose and V_n the end traces of v on
    slab n, the end traces of M v are X_0 from one band solve on the first
    slab (with LU first) and X_n = G_ee V_n + P X_(n-1) after it (_carry),
    where G_ee is G[:r, :r] and P = G[:r, r:] W carries them from slab to slab;
    then (E M v) on slab n is D [X_n; V_(n+1)] with D = [W - W^T G[r:, r:] W,
    -W^T G[r:, :r]].
    G_ee, P and D hold 4 r^2 doubles (trace_bytes), as many as G, which is
    never formed.
    """

    def __init__(self, system, first, interior):
        super().__init__(system, interior)
        self._first = first

    @cached_property
    def _traces(self):
        """(G_ee, P, D), from solves with interior.  G is never formed: the
        end unit columns give S = G[:, :r], and the columns of W on the
        start rows give SW = G[:, r:] W; G_ee and P are copies of their
        end rows, so only the 4 r^2 doubles stay alive."""
        lu, sys = self._lu, self.system
        T, r = sys.trace, sys.n_end
        W, W_T = sys.jump_weight.toarray(), sys.jump_weight_T
        S = lu.trace_solve(T, T[:r], np.eye(r))
        SW = lu.trace_solve(T, T[r:], W)
        D = np.hstack((W - W_T @ SW[r:], -(W_T @ S[r:])))
        return S[:r].copy(), SW[:r].copy(), D

    def em(self, v):
        """(E M v) on rows, for the v given by its values on rows."""
        if len(v) == 0:
            return np.zeros(0)
        G_ee, P, D = self._traces
        sys = self.system
        T, r, N = sys.trace, sys.n_end, sys.n_slabs
        # rows are all r end rows of slabs 0..N-2, slab by slab, in trace
        # order: v is their end traces V, one row per slab
        V = v.reshape(N - 1, r)
        # W stacks, row n, the end traces X[n] of M v on slab n beside
        # those of v on slab n + 1 (zero on the last slab, off rows)
        W = np.zeros((N - 1, 2 * r))
        W[:-1, r:] = V[1:]
        X = W[:, :r]
        # the first slab's block has no plus term: one band solve there
        X[0] = self._first.trace_solve(T[:r], T[:r], V[:1].T)[:, 0]
        X[1:] = V[1:] @ G_ee.T
        _carry(X, P)
        return (W @ D.T).ravel()


class _BlockDefect(_Defect):
    """The defect of block's independent slab solves with the LU lu: all
    four jump terms, the lower half too, which reaches the start-time rows
    of every slab but the first.  em applies G, the inverse of the block
    on the traces, to the traces of all slabs at once and ends in
    trace_jumps."""

    def _reach(self):
        reach = super()._reach()
        reach[1:, self.system.trace[self.system.n_end :]] = True
        return reach

    @cached_property
    def _traces(self):
        """G, from solves with lu."""
        T = self.system.trace
        return self._lu.trace_solve(T, T, np.eye(len(T)))

    def em(self, v):
        """(E M v) on rows, for the v given by its values on rows."""
        if len(v) == 0:
            return np.zeros(0)
        sys = self.system
        V = np.zeros((len(sys.trace), sys.n_slabs))
        V.ravel()[self._trace_at] = v
        # the traces of M v, one column per slab, end rows first
        return sys.trace_jumps(self._traces @ V).ravel()[self._trace_at]


class BlockJacobi:
    """Independent per-slab solves of the slab-diagonal block, with the
    interface jump terms dropped entirely.

    All four jump terms are the defect of this inverse: defect.rows are the
    rows they reach, and defect(z) is their action on z there.
    """

    def __init__(self, system):
        self.system = system
        self.lu = _BandLU(
            _slab_block(system, system.dual, Triplets.of(system.A_pd),
                        Triplets.of(system.Sstar)),
            "slab-diagonal block")
        self.defect = _BlockDefect(system, self.lu)

    def apply(self, r):
        # one multi-right-hand-side solve, a column per slab
        return self.lu.solve(self.system.slab_view(r).T).T.ravel()


class MonolithicForward:
    """Forward slab sweep on the system with the interface jumps relaxed to
    their upstream-tested half, at the system's own dual orders.

    The relaxed system is block-lower-triangular over slabs, so one forward
    substitution with per-slab monolithic (primal + dual) solves inverts it,
    marched slab by slab: before its band solve, each slab's start traces
    take W (system.jump_weight) of the end traces solved on the slab
    before.  It inverts the system up to the upper jump terms it relaxed:
    defect.rows are the rows they reach, and defect(z) is their action on z
    there.

    It marches rather than running _Sweep's carry, whose rounding differs:
    a carry on mf moved the gcc1d k=2 N=24 error norms 1.4e-4 relative,
    past the benchmark's 1e-4 gate on them, which tests rounding there
    (CHANGES.md).  It moves onto _Sweep when ROADMAP item 4 restates that
    gate.
    """

    def __init__(self, system):
        self.system = system
        self.lus = _forward_sweep(
            system, system.dual, Triplets.of(system.A_pd),
            Triplets.of(system.Sstar))
        self.defect = _SweepDefect(system, self.lus[0], self.lus[-1])

    def apply(self, r):
        sys = self.system
        end, start = sys.trace[: sys.n_end], sys.trace[sys.n_end :]
        # row n holds slab n's right-hand side until its solve replaces it
        X = sys.slab_view(r).copy()
        for n, lu in enumerate(self.lus):
            if n:
                X[n][start] += sys.jump_weight @ X[n - 1][end]
            X[n] = lu.solve(X[n])
        return X.ravel()


class LightForward:
    """The forward slab sweep of MonolithicForward at the light dual orders
    LIGHT_ORDERS, over the whole time domain at once (sweep, a _Sweep).

    The residual's dual part enters the sweep through the degree embedding
    (embed_T); the dual part of the output is then recovered exactly from
    the dual-test rows, which are slab-local (sstar_lu), so the map stays
    invertible and preconditions the same system as mf.  It has no defect.
    """

    def __init__(self, system):
        self.system = system
        light = SlabSpace(system.mesh, *LIGHT_ORDERS, system.config.dt)
        self.embed_T = assemble_embedding(system.dual, light).tocsr().T
        self.sstar_lu = _BandLU(
            _Band(Triplets.of(system.Sstar), _node_order(system.dual)),
            "dual stabilizer")
        self.lus = _forward_sweep(
            system, light, assemble_A(system.primal, light),
            assemble_dual_stabilizer(light))
        self.sweep = _Sweep(self.lus, _jump_weight_on(
            system, light, system.trace[: system.n_end]))

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        n_p = sys.n_primal
        R_y = R[:, n_p:]
        R_sweep = np.hstack((R[:, :n_p], (self.embed_T @ R_y.T).T))
        U = self.sweep(R_sweep)[:, :n_p]
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
    (_Sweep), and neither applies the system's operator.  The extra terms
    take lambda from the system's configuration (resolved_lambda).
    """

    def __init__(self, system):
        self.system = system
        cfg = system.config
        if (cfg.kstar, cfg.qstar) != (cfg.k, cfg.q):
            raise ValueError("the forward-backward split requires equal "
                             "primal and dual orders")
        extras = assemble_dfb_extras(system.primal, system.dual, system.data,
                                     cfg.resolved_lambda())
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
        # the backward sweep is the transposed march on the reversed slab
        # order: it reads the LUs and the coupling transposed
        self.backward = _Sweep(self.lus[::-1], coupling, trans=1)

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


KINDS = {"none": Identity, "block": BlockJacobi, "mf": MonolithicForward,
         "ml": LightForward, "dfb": ForwardBackwardSplit}


def build_preconditioner(system, kind):
    """The preconditioner of the given kind, KINDS[kind](system)."""
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind: {kind!r}")
    return KINDS[kind](system)
