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


def _march(R, lus, coupling, trans="N"):
    """Block substitution down the rows of R: row n solves lus[n] (with
    trans) against R[n] plus coupling applied to the row solved just
    before it.  Every slab-marching sweep is one call of this."""
    X = np.empty(R.shape)
    for n, lu in enumerate(lus):
        rhs = R[n] if n == 0 else R[n] + coupling @ X[n - 1]
        X[n] = lu.solve(rhs, trans=trans)
    return X


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

        diag_pp = system.Sh + system.Momega
        D0 = sp.bmat([[diag_pp, A_sw.T], [A_sw, -Sstar_sw]], format="csc")
        Dint = sp.bmat(
            [[diag_pp + system.jump["plus"], A_sw.T], [A_sw, -Sstar_sw]],
            format="csc",
        )
        lu_interior = _factorize(Dint, "interior slab")
        self.lus = ([_factorize(D0, "first slab")]
                    + [lu_interior] * (system.n_slabs - 1))
        # the upstream primal trace couples into the primal-test rows only:
        # the cross block padded with zeros to the sweep block
        n_sweep = system.n_primal + sweep_dual.n_pair
        self.coupling = system.jump["cross"].copy()
        self.coupling.resize(n_sweep, n_sweep)

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
        lu_interior = _factorize(Gint, "interior slab, forward sweep")
        self.lus = ([_factorize(G0, "first slab, forward sweep")]
                    + [lu_interior] * (system.n_slabs - 1))

    def apply(self, r):
        sys = self.system
        R = sys.slab_view(r)
        n_p = sys.n_primal
        x = sys.zero_vector()
        X = sys.slab_view(x)
        X[:, :n_p] = _march(R[:, n_p:], self.lus, self.coupling_sub)
        stab = sys.slab_view(sys.apply_primal_stabilized(x))
        rest = R[:, :n_p] - stab[:, :n_p]
        # the backward sweep is the same march on the reversed slab order
        X[:, n_p:] = _march(rest[::-1], self.lus[::-1], self.coupling_sub_T,
                            trans="T")[::-1]
        return x


def build_preconditioner(system, kind):
    if kind == "none":
        return IdentityPreconditioner()
    if kind == "block":
        return BlockJacobi(system)
    if kind == "mf":
        return MonolithicForward(system)
    if kind == "ml":
        return MonolithicForward(system, dual_orders=(1, 0))
    if kind == "dfb":
        return ForwardBackwardSplit(system, system.config.resolved_lambda())
    raise ValueError(f"unknown preconditioner kind: {kind!r}")
