"""Per-slab bilinear form assembly on tensor-product space-time slabs.

A slab couples a spatial Lagrange space of degree k on the interval mesh
with a temporal polynomial space of degree q on one time slab.  Each field
pair (displacement, velocity) is stored as two stacked field blocks; within
a field block the coefficient layout is (temporal mode, spatial dof),
flattened C-style, so a field block has (q+1) * n_x entries.

Every spatial form is an element integral, one local matrix scattered over
element_dofs (the global dofs of each element), or a product of point_matrix
evaluations; each is built from one COO array, with no element loop.

All assembled blocks are scipy.sparse matrices over one slab's field-pair
coefficients.  Coupling between neighbouring slabs is expressed through the
time-trace matrices returned by time_trace_matrices / interface_jump_blocks.
"""

import numpy as np
import scipy.sparse as sp

from .basis import SpatialBasis, TemporalBasis, gauss_rule

__all__ = [
    "SlabSpace",
    "element_dofs",
    "point_matrix",
    "spatial_matrix",
    "temporal_matrix",
    "boundary_penalty_matrix",
    "boundary_flux_matrix",
    "gradient_jump_matrix",
    "assemble_A",
    "assemble_primal_stabilizers",
    "assemble_dual_stabilizer",
    "assemble_data_mass",
    "time_trace_matrices",
    "interface_jump_blocks",
    "assemble_dfb_extras",
    "assemble_dual_interface_mass",
]


class SlabSpace:
    """Tensor-product trial/test space on one uniform time slab."""

    def __init__(self, mesh, degree_x, degree_t, dt):
        if dt <= 0:
            raise ValueError(f"slab length must be positive, got {dt}")
        self.mesh = mesh
        self.degree_x = degree_x
        self.degree_t = degree_t
        self.dt = float(dt)
        self.xbasis = SpatialBasis(degree_x)
        self.tbasis = TemporalBasis(degree_t)
        self.n_x = degree_x * mesh.n_elems + 1
        self.n_modes = degree_t + 1
        # one field block; a field pair has 2 * n_field coefficients
        self.n_field = self.n_modes * self.n_x
        self.n_pair = 2 * self.n_field


def element_dofs(mesh, degree):
    """Global dofs of every element for the continuous Lagrange space of the
    given degree, shape (n_elems, degree + 1): element e holds the nodes
    e * degree, ..., (e + 1) * degree, so neighbours share one vertex dof."""
    return degree * np.arange(mesh.n_elems)[:, None] + np.arange(degree + 1)


def point_matrix(mesh, basis, elems, ref, deriv=0):
    """Point evaluations over the global dofs, as a CSR matrix whose row r
    holds the values (deriv = 0) or physical derivatives of the basis of
    element elems[r] at reference point ref[r] (or at ref, if scalar).
    Basis values that vanish exactly are not stored."""
    cols = element_dofs(mesh, basis.degree)[elems]
    vals = basis.eval(np.asarray(ref, dtype=float), deriv) / mesh.h**deriv
    rows = np.repeat(np.arange(len(cols)), basis.degree + 1)
    out = sp.csr_matrix(
        (np.broadcast_to(vals, cols.shape).ravel(), (rows, cols.ravel())),
        shape=(len(cols), basis.degree * mesh.n_elems + 1),
    )
    out.eliminate_zeros()
    return out


def spatial_matrix(mesh, test, trial, d_test=0, d_trial=0, nq=None, mask=None):
    """Element-wise integral of D^a(test_i) * D^b(trial_j) over the mesh.

    test/trial are SpatialBasis objects; derivatives are physical ones.
    With mask given, only the masked elements contribute.  Second
    derivatives are taken element by element (no distributional part), which
    is what the interior least-squares terms need.
    """
    if nq is None:
        nq = max(test.degree, trial.degree) + 2
    rule = gauss_rule(nq)
    h = mesh.h
    vt = test.eval(rule.points, d_test) / h**d_test
    vr = trial.eval(rule.points, d_trial) / h**d_trial
    local = np.einsum("q,qi,qj->ij", rule.weights * h, vt, vr)
    elems = slice(None) if mask is None else np.flatnonzero(mask)
    rows, cols = np.broadcast_arrays(
        element_dofs(mesh, test.degree)[elems, :, None],
        element_dofs(mesh, trial.degree)[elems, None, :])
    vals = np.broadcast_to(local, rows.shape)
    return sp.csr_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())),
        shape=(test.degree * mesh.n_elems + 1,
               trial.degree * mesh.n_elems + 1),
    )


def temporal_matrix(test, trial, d_test=0, d_trial=0, dt=1.0, nq=None):
    """Integral over one slab of d^a/dt^a(test_i) * d^b/dt^b(trial_j).

    test/trial are TemporalBasis objects.  The physical slab length enters
    as dt^(1 - a - b).
    """
    if nq is None:
        nq = max(test.degree, trial.degree) + 2
    rule = gauss_rule(nq)
    vt = test.eval(rule.points, d_test)
    vr = trial.eval(rule.points, d_trial)
    ref = np.einsum("q,qi,qj->ij", rule.weights, vt, vr)
    return dt ** (1 - d_test - d_trial) * ref


def _endpoint_matrix(mesh, basis, deriv=0):
    """Point evaluations at the two domain endpoints (left row first)."""
    return point_matrix(mesh, basis, [0, mesh.n_elems - 1], [0.0, 1.0], deriv)


def boundary_penalty_matrix(mesh, test, trial):
    """Sum over the two domain endpoints of test_i * trial_j."""
    return (_endpoint_matrix(mesh, test).T
            @ _endpoint_matrix(mesh, trial)).tocsr()


def boundary_flux_matrix(mesh, test, trial):
    """Sum over the two endpoints of test_i * (normal derivative of trial_j)."""
    normals = sp.diags([-1.0, 1.0])
    return (_endpoint_matrix(mesh, test).T
            @ normals @ _endpoint_matrix(mesh, trial, deriv=1)).tocsr()


def gradient_jump_matrix(mesh, basis):
    """Facet penalty: sum over interior vertices of h * [grad u] * [grad v].

    The facet measure in 1D is a point evaluation; the weight h makes the
    penalty scale like the continuous-interior-penalty gradient-jump term.
    The penalty is h G^T G, where row i of G is the left minus the right
    derivative at interior vertex i.
    """
    v = mesh.interior_facets
    G = (point_matrix(mesh, basis, v - 1, 1.0, deriv=1)
         - point_matrix(mesh, basis, v, 0.0, deriv=1))
    return (mesh.h * (G.T @ G)).tocsr()


def _pair_blocks(b11, b12, b21, b22, shape11):
    """2x2 field-pair block matrix with explicit zero blocks where needed."""
    n_r, n_c = shape11
    z = lambda: sp.csr_matrix((n_r, n_c))
    return sp.bmat(
        [[b11 if b11 is not None else z(), b12 if b12 is not None else z()],
         [b21 if b21 is not None else z(), b22 if b22 is not None else z()]],
        format="csr",
    )


def assemble_A(primal, dual, nq=None):
    """Space-time wave operator on one slab, tested against the dual pair.

    Rows run over the dual field pair (y1, y2), columns over the primal pair
    (u1, u2).  The boundary term is the Nitsche-style consistency flux
    -(du1/dn, y1) over the lateral boundary.
    """
    if primal.mesh is not dual.mesh or primal.dt != dual.dt:
        raise ValueError("primal and dual slabs must share mesh and slab length")
    mesh, dt = primal.mesh, primal.dt
    Mt = temporal_matrix(dual.tbasis, primal.tbasis, 0, 0, dt, nq=nq)
    Ct = temporal_matrix(dual.tbasis, primal.tbasis, 0, 1, dt, nq=nq)
    Mx = spatial_matrix(mesh, dual.xbasis, primal.xbasis, nq=nq)
    Kx = spatial_matrix(mesh, dual.xbasis, primal.xbasis, 1, 1, nq=nq)
    Fx = boundary_flux_matrix(mesh, dual.xbasis, primal.xbasis)
    A11 = sp.kron(Mt, Kx - Fx, format="csr")
    A12 = sp.kron(Ct, Mx, format="csr")
    A21 = sp.kron(Ct, Mx, format="csr")
    A22 = -sp.kron(Mt, Mx, format="csr")
    return _pair_blocks(A11, A12, A21, A22, A11.shape)


def assemble_primal_stabilizers(space, nq=None):
    """Primal residual-type stabilizers on one slab.

    Returns a dict with the gradient-jump penalty "J", the interior
    least-squares term "G", the velocity-compatibility term "I0", the
    lateral boundary penalty "R" and their sum "Sh".  All are symmetric
    field-pair matrices; the sum is positive semidefinite.
    """
    mesh, dt, h = space.mesh, space.dt, space.mesh.h
    xb, tb = space.xbasis, space.tbasis
    tmat = lambda a, b: temporal_matrix(tb, tb, a, b, dt, nq=nq)
    Mx = spatial_matrix(mesh, xb, xb, nq=nq)
    Jx = gradient_jump_matrix(mesh, xb)
    S22 = spatial_matrix(mesh, xb, xb, 2, 2, nq=nq)
    S02 = spatial_matrix(mesh, xb, xb, 0, 2, nq=nq)
    S20 = spatial_matrix(mesh, xb, xb, 2, 0, nq=nq)
    Pb = boundary_penalty_matrix(mesh, xb, xb)
    shape = (space.n_field, space.n_field)

    J = _pair_blocks(sp.kron(tmat(0, 0), Jx), None, None, None, shape)

    # element-wise residual (dt u2 - Laplace u1) against itself, weight h^2
    G = _pair_blocks(
        h**2 * sp.kron(tmat(0, 0), S22),
        -(h**2) * sp.kron(tmat(0, 1), S20),
        -(h**2) * sp.kron(tmat(1, 0), S02),
        h**2 * sp.kron(tmat(1, 1), Mx),
        shape,
    )

    # (u2 - dt u1) against (w2 - dt w1)
    I0 = _pair_blocks(
        sp.kron(tmat(1, 1), Mx),
        -sp.kron(tmat(1, 0), Mx),
        -sp.kron(tmat(0, 1), Mx),
        sp.kron(tmat(0, 0), Mx),
        shape,
    )

    R = _pair_blocks((1.0 / h) * sp.kron(tmat(0, 0), Pb), None, None, None, shape)

    parts = {"J": J, "G": G, "I0": I0, "R": R}
    parts["Sh"] = sum(parts.values()).tocsr()
    return parts


def assemble_dual_stabilizer(space, nq=None):
    """Dual-pair stabilizer: full H1-type mass on z1 (with lateral boundary
    weight 1/h) and plain mass on z2.  Symmetric positive definite."""
    mesh, dt, h = space.mesh, space.dt, space.mesh.h
    xb, tb = space.xbasis, space.tbasis
    Mt = temporal_matrix(tb, tb, 0, 0, dt, nq=nq)
    Mx = spatial_matrix(mesh, xb, xb, nq=nq)
    Kx = spatial_matrix(mesh, xb, xb, 1, 1, nq=nq)
    Pb = boundary_penalty_matrix(mesh, xb, xb)
    B11 = sp.kron(Mt, Mx + Kx + Pb / h, format="csr")
    B22 = sp.kron(Mt, Mx, format="csr")
    return _pair_blocks(B11, None, None, B22, B11.shape)


def assemble_data_mass(test_space, trial_space, data, nq=None):
    """Mass restricted to the measurement region, acting on the first field
    only.  Rows run over test_space, columns over trial_space."""
    mesh, dt = trial_space.mesh, trial_space.dt
    Mt = temporal_matrix(test_space.tbasis, trial_space.tbasis, 0, 0, dt, nq=nq)
    Mw = spatial_matrix(
        mesh, test_space.xbasis, trial_space.xbasis, nq=nq, mask=data.element_mask
    )
    B11 = sp.kron(Mt, Mw, format="csr")
    return _pair_blocks(B11, None, None, None, B11.shape)


def time_trace_matrices(space):
    """Slab-endpoint trace operators per field.

    Returns {"plus": [T1, T2], "minus": [T1, T2]} where each T maps one
    slab's field-pair coefficients to the spatial coefficients of the
    selected field at the slab start (plus) or end (minus).
    """
    out = {}
    eye = sp.identity(space.n_x, format="csr")
    zero = sp.csr_matrix((space.n_x, space.n_field))
    for key, ref in (("plus", 0.0), ("minus", 1.0)):
        psi = space.tbasis.eval(np.array(ref))
        T = sp.kron(sp.csr_matrix(psi[None, :]), eye, format="csr")
        out[key] = [
            sp.hstack([T, zero], format="csr"),
            sp.hstack([zero, T], format="csr"),
        ]
    return out


def interface_jump_blocks(space):
    """Coupling blocks of the time-interface jump stabilizer.

    At each interior slab interface the stabilizer penalizes the jumps of
    both fields, with weights 1/dt on the values and dt on the gradient of
    the first field.  The quadratic form splits into a plus-plus block
    ("plus"), a minus-minus block ("minus") and the cross block ("cross",
    rows on the later slab, columns on the earlier one, to be subtracted).
    """
    mesh, dt = space.mesh, space.dt
    Mx = spatial_matrix(mesh, space.xbasis, space.xbasis)
    Kx = spatial_matrix(mesh, space.xbasis, space.xbasis, 1, 1)
    W1 = Mx / dt + dt * Kx
    W2 = Mx / dt
    tr = time_trace_matrices(space)
    T1p, T2p = tr["plus"]
    T1m, T2m = tr["minus"]
    return {
        "plus": (T1p.T @ W1 @ T1p + T2p.T @ W2 @ T2p).tocsr(),
        "minus": (T1m.T @ W1 @ T1m + T2m.T @ W2 @ T2m).tocsr(),
        "cross": (T1p.T @ W1 @ T1m + T2p.T @ W2 @ T2m).tocsr(),
    }


def assemble_dfb_extras(primal, dual, data, lam, nq=None):
    """Extra terms that make the slab-wise primal operator invertible.

    Returns the measurement-region observer term, the lateral boundary
    penalty with weight lam / h (both tested against y1), and the upwind
    jump couplings tested against the incoming dual traces:
    "coupling_diag" acts on the later slab's coefficients, "coupling_sub"
    on the earlier slab's (to be subtracted).
    """
    if lam <= 0:
        raise ValueError(f"boundary penalty weight must be positive, got {lam}")
    mesh, dt, h = primal.mesh, primal.dt, primal.mesh.h
    observer = assemble_data_mass(dual, primal, data, nq=nq)
    Mt = temporal_matrix(dual.tbasis, primal.tbasis, 0, 0, dt, nq=nq)
    Pb = boundary_penalty_matrix(mesh, dual.xbasis, primal.xbasis)
    nitsche = _pair_blocks(
        (lam / h) * sp.kron(Mt, Pb), None, None, None,
        (dual.n_field, primal.n_field),
    )
    Mdp = spatial_matrix(mesh, dual.xbasis, primal.xbasis, nq=nq)
    dtr = time_trace_matrices(dual)
    ptr = time_trace_matrices(primal)
    D1p, D2p = dtr["plus"]
    T1p, T2p = ptr["plus"]
    T1m, T2m = ptr["minus"]
    return {
        "observer": observer,
        "nitsche": nitsche,
        "coupling_diag": (D2p.T @ Mdp @ T1p + D1p.T @ Mdp @ T2p).tocsr(),
        "coupling_sub": (D2p.T @ Mdp @ T1m + D1p.T @ Mdp @ T2m).tocsr(),
    }


def assemble_dual_interface_mass(dual):
    """Incoming-trace mass of the dual pair, weight dt, used to augment the
    dual stabilizer on every slab after the first."""
    Mx = spatial_matrix(dual.mesh, dual.xbasis, dual.xbasis)
    tr = time_trace_matrices(dual)
    D1p, D2p = tr["plus"]
    return (dual.dt * (D1p.T @ Mx @ D1p + D2p.T @ Mx @ D2p)).tocsr()
