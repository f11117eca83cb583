"""Slab-marching preconditioners for the coupled space-time system.

All preconditioners are linear maps r -> x built from sparse LU
factorizations of per-slab blocks.  On a uniform mesh every interior slab
shares one factorization; the first slab differs because no interface jump
terms reach it.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .slab_forms import (
    SlabSpace,
    assemble_A,
    assemble_dfb_extras,
    assemble_dual_stabilizer,
)

__all__ = [
    "IdentityPreconditioner",
    "BlockJacobi",
    "MonolithicForward",
    "ForwardBackwardSplit",
    "build_preconditioner",
]


def _factorize(matrix, label):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as exc:
        raise ValueError(f"singular slab system ({label}): {exc}") from exc


class IdentityPreconditioner:
    def apply(self, r):
        return r.copy()


class BlockJacobi:
    """Independent per-slab solves of the slab-diagonal block, with the
    interface jump terms dropped entirely."""

    def __init__(self, system):
        self.system = system
        D = sp.bmat(
            [[system.Sh + system.Momega, system.A_pd.T],
             [system.A_pd, -system.Sstar]],
            format="csc",
        )
        self.lu = _factorize(D, "slab-diagonal block")

    def apply(self, r):
        # one multi-right-hand-side solve, a column per slab
        return self.lu.solve(self.system.slab_view(r).T).T.ravel()


def _spatial_embedding(mesh, fine, coarse):
    """Coefficients of coarse spatial functions expressed in the fine nodal
    basis (same mesh, lower degree)."""
    kf, kc = fine.degree, coarse.degree
    n_f = kf * mesh.n_elems + 1
    n_c = kc * mesh.n_elems + 1
    E = sp.lil_matrix((n_f, n_c))
    vals = coarse.eval(fine.nodes)
    for e in range(mesh.n_elems):
        rows = e * kf + np.arange(kf + 1)
        cols = e * kc + np.arange(kc + 1)
        # plain assignment: shared vertex rows agree from both elements
        E[np.ix_(rows, cols)] = vals
    return E.tocsr()


class MonolithicForward:
    """Forward slab sweep on the system with the interface jumps relaxed to
    their upstream-tested half.

    The relaxed system is block-lower-triangular over slabs, so one forward
    substitution with per-slab monolithic (primal + dual) solves inverts it.
    The sweep may use a reduced dual order internally (the "light" variant
    uses the minimal orders (1, 0)); the dual part of the output is then
    recovered exactly from the dual-test rows, which are slab-local, so the
    map stays invertible and all variants precondition the same system.
    """

    def __init__(self, system, dual_orders=None):
        self.system = system
        cfg = system.config
        system_orders = (cfg.kstar, cfg.qstar)
        orders = system_orders if dual_orders is None else tuple(dual_orders)
        if orders == system_orders:
            sweep_dual = system.dual
            A_sw = system.A_pd
            Sstar_sw = system.Sstar
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
            Et = sp.csr_matrix(sweep_dual.tbasis.eval(system.dual.tbasis.nodes))
            Ef = sp.kron(Et, Ex, format="csr")
            self.embed = sp.block_diag((Ef, Ef), format="csr")
            self.embed_T = self.embed.T.tocsr()
            self.sstar_lu = _factorize(system.Sstar, "dual stabilizer")
        self.n_sweep_dual = sweep_dual.n_pair

        diag_pp = system.Sh + system.Momega
        D0 = sp.bmat([[diag_pp, A_sw.T], [A_sw, -Sstar_sw]], format="csc")
        Dint = sp.bmat(
            [[diag_pp + system.jump["plus"], A_sw.T], [A_sw, -Sstar_sw]],
            format="csc",
        )
        self.lu_first = _factorize(D0, "first slab")
        self.lu_interior = _factorize(Dint, "interior slab")
        self.cross = system.jump["cross"]

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        n_p = sys.n_primal
        R_w, R_y = R[:, :n_p], R[:, n_p:]
        R_sweep = R_y if self.embed is None else (self.embed_T @ R_y.T).T
        sweep = np.empty((sys.n_slabs, n_p + self.n_sweep_dual))
        for n in range(sys.n_slabs):
            rhs_p = R_w[n]
            if n >= 1:
                rhs_p = rhs_p + self.cross @ sweep[n - 1, :n_p]
            lu = self.lu_first if n == 0 else self.lu_interior
            sweep[n] = lu.solve(np.concatenate((rhs_p, R_sweep[n])))
        if self.embed is None:
            return sweep.ravel()
        # exact dual part from the slab-local dual-test rows, all slabs at once
        U = sweep[:, :n_p]
        Z = self.sstar_lu.solve(sys.A_pd @ U.T - R_y.T)
        return np.hstack((U, Z.T)).ravel()


class ForwardBackwardSplit:
    """Two sweeps over the slab-local primal operator enriched with the
    observer and lateral-boundary terms plus upwind jump couplings.

    Step 1 marches forward in time solving for the primal pair against the
    dual-test rows of the residual.  Step 2 forms the remaining primal-test
    residual and marches backward with the transposed blocks to recover the
    dual pair.
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
        self.coupling_sub = extras["coupling_sub"]
        self.coupling_sub_T = self.coupling_sub.T.tocsr()
        self.lu_first = _factorize(G0, "first slab, forward sweep")
        self.lu_interior = _factorize(Gint, "interior slab, forward sweep")

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        N, n_p = sys.n_slabs, sys.n_primal
        x = sys.zero_vector()
        X = sys.slab_view(x)
        for n in range(N):
            rhs = R[n, n_p:]
            if n >= 1:
                rhs = rhs + self.coupling_sub @ X[n - 1, :n_p]
            lu = self.lu_first if n == 0 else self.lu_interior
            X[n, :n_p] = lu.solve(rhs)
        stab = sys.slab_view(sys.apply_primal_stabilized(x))
        rest = R[:, :n_p] - stab[:, :n_p]
        for n in reversed(range(N)):
            rhs = rest[n]
            if n < N - 1:
                rhs = rhs + self.coupling_sub_T @ X[n + 1, n_p:]
            lu = self.lu_first if n == 0 else self.lu_interior
            X[n, n_p:] = lu.solve(rhs, trans="T")
        return x


def build_preconditioner(system, kind, lam=None):
    if kind == "none":
        return IdentityPreconditioner()
    if kind == "block":
        return BlockJacobi(system)
    if kind == "mf":
        return MonolithicForward(system)
    if kind == "ml":
        return MonolithicForward(system, dual_orders=(1, 0))
    if kind == "dfb":
        if lam is None:
            lam = system.config.resolved_lambda()
        return ForwardBackwardSplit(system, lam)
    raise ValueError(f"unknown preconditioner kind: {kind!r}")
