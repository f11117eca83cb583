"""Per-slab bilinear form assembly on tensor-product space-time slabs.

A slab couples a spatial Lagrange space of degree k on the interval mesh
with a temporal polynomial space of degree q on one time slab.  Each field
pair (displacement, velocity) is stored as two stacked field blocks; within
a field block the coefficient layout is (temporal mode, spatial dof),
flattened C-style, so a field block has (q+1) * n_x entries.

Every block is a scipy.sparse sum of kron(temporal factor, spatial factor)
terms over one slab's field-pair coefficients.  A SlabSpace keeps the
factors it is tested with, so a system builds each distinct factor once.
Every spatial form is an element integral, one local matrix scattered over
element_dofs (the global dofs of each element), or a product of point_matrix
evaluations, with no element loop.  The temporal factors of the blocks that
couple neighbouring slabs are products of slab-endpoint values
(temporal_trace_matrix).
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
    "temporal_trace_matrix",
    "boundary_penalty_matrix",
    "boundary_flux_matrix",
    "gradient_jump_matrix",
    "assemble_A",
    "assemble_primal_stabilizers",
    "assemble_dual_stabilizer",
    "assemble_data_mass",
    "interface_jump_blocks",
    "assemble_dfb_extras",
    "assemble_dual_interface_mass",
]


class SlabSpace:
    """Tensor-product trial/test space on one uniform time slab.

    spatial, temporal and boundary_penalty build the factors of the forms
    tested with this space once per trial space's orders, derivative pair
    and data mask, and hand back the same matrix on every later call.
    """

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
        self._factors = {}

    def _factor(self, trial, key, build):
        """build() on the first call with key and trial's orders, the kept
        result after that; trial must share this slab's mesh and length."""
        if trial.mesh is not self.mesh or trial.dt != self.dt:
            raise ValueError("test and trial slabs must share mesh and length")
        key += (trial.degree_x, trial.degree_t)
        if key not in self._factors:
            self._factors[key] = build()
        return self._factors[key]

    def spatial(self, trial, d_test=0, d_trial=0, mask=None):
        """spatial_matrix of this space's basis (test) against trial's."""
        key = ("x", d_test, d_trial, None if mask is None else mask.tobytes())
        return self._factor(trial, key, lambda: spatial_matrix(
            self.mesh, self.xbasis, trial.xbasis, d_test, d_trial, mask=mask))

    def temporal(self, trial, d_test=0, d_trial=0):
        """temporal_matrix of this space's basis (test) against trial's."""
        return self._factor(trial, ("t", d_test, d_trial), lambda:
                            temporal_matrix(self.tbasis, trial.tbasis,
                                            d_test, d_trial, self.dt))

    def boundary_penalty(self, trial):
        """boundary_penalty_matrix of this space's basis against trial's."""
        return self._factor(trial, ("penalty",), lambda:
                            boundary_penalty_matrix(self.mesh, self.xbasis,
                                                    trial.xbasis))


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


def spatial_matrix(mesh, test, trial, d_test=0, d_trial=0, mask=None):
    """Element-wise integral of D^a(test_i) * D^b(trial_j) over the mesh.

    test/trial are SpatialBasis objects; derivatives are physical ones.
    With mask given, only the masked elements contribute.  Second
    derivatives are taken element by element (no distributional part), which
    is what the interior least-squares terms need.
    """
    rule = gauss_rule(max(test.degree, trial.degree) + 2)
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


def temporal_matrix(test, trial, d_test=0, d_trial=0, dt=1.0):
    """Integral over one slab of d^a/dt^a(test_i) * d^b/dt^b(trial_j).

    test/trial are TemporalBasis objects.  The physical slab length enters
    as dt^(1 - a - b).
    """
    rule = gauss_rule(max(test.degree, trial.degree) + 2)
    vt = test.eval(rule.points, d_test)
    vr = trial.eval(rule.points, d_trial)
    ref = np.einsum("q,qi,qj->ij", rule.weights, vt, vr)
    return dt ** (1 - d_test - d_trial) * ref


def temporal_trace_matrix(test, trial, t_test, t_trial):
    """Temporal factor of a slab-interface term: test_i at reference time
    t_test times trial_j at t_trial (0 is the slab start, 1 its end); with
    bases nodal at both endpoints it selects one test and one trial mode."""
    return np.outer(test.eval(t_test), trial.eval(t_trial))


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
    blocks = [sp.csr_matrix(shape11) if blk is None else blk
              for blk in (b11, b12, b21, b22)]
    return sp.bmat([blocks[:2], blocks[2:]], format="csr")


def assemble_A(primal, dual):
    """Space-time wave operator on one slab, tested against the dual pair.

    Rows run over the dual field pair (y1, y2), columns over the primal pair
    (u1, u2).  The boundary term is the Nitsche-style consistency flux
    -(du1/dn, y1) over the lateral boundary.
    """
    Mt = dual.temporal(primal)
    Ct = dual.temporal(primal, 0, 1)
    Mx = dual.spatial(primal)
    Kx = dual.spatial(primal, 1, 1)
    Fx = boundary_flux_matrix(primal.mesh, dual.xbasis, primal.xbasis)
    A11 = sp.kron(Mt, Kx - Fx, format="csr")
    A12 = sp.kron(Ct, Mx, format="csr")
    A22 = -sp.kron(Mt, Mx, format="csr")
    return _pair_blocks(A11, A12, A12, A22, A11.shape)


def assemble_primal_stabilizers(space):
    """Primal residual-type stabilizers on one slab.

    Returns a dict with the gradient-jump penalty "J", the interior
    least-squares term "G", the velocity-compatibility term "I0", the
    lateral boundary penalty "R" and their sum "Sh".  All are symmetric
    field-pair matrices; the sum is positive semidefinite.
    """
    h = space.mesh.h
    tmat = lambda a, b: space.temporal(space, a, b)
    Mx = space.spatial(space)
    Jx = gradient_jump_matrix(space.mesh, space.xbasis)
    S22 = space.spatial(space, 2, 2)
    S02 = space.spatial(space, 0, 2)
    S20 = space.spatial(space, 2, 0)
    Pb = space.boundary_penalty(space)
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


def assemble_dual_stabilizer(space):
    """Dual-pair stabilizer: full H1-type mass on z1 (with lateral boundary
    weight 1/h) and plain mass on z2.  Symmetric positive definite."""
    Mt = space.temporal(space)
    Mx = space.spatial(space)
    Kx = space.spatial(space, 1, 1)
    Pb = space.boundary_penalty(space)
    B11 = sp.kron(Mt, Mx + Kx + Pb / space.mesh.h, format="csr")
    B22 = sp.kron(Mt, Mx, format="csr")
    return _pair_blocks(B11, None, None, B22, B11.shape)


def assemble_data_mass(test_space, trial_space, data):
    """Mass restricted to the measurement region, acting on the first field
    only.  Rows run over test_space, columns over trial_space."""
    Mt = test_space.temporal(trial_space)
    Mw = test_space.spatial(trial_space, mask=data.element_mask)
    B11 = sp.kron(Mt, Mw, format="csr")
    return _pair_blocks(B11, None, None, None, B11.shape)


def interface_jump_blocks(space):
    """Coupling blocks of the time-interface jump stabilizer.

    At each interior slab interface the stabilizer penalizes the jumps of
    both fields, with weights 1/dt on the values and dt on the gradient of
    the first field.  The quadratic form splits into a plus-plus block
    ("plus"), a minus-minus block ("minus") and the cross block ("cross",
    rows on the later slab, columns on the earlier one, to be subtracted).
    """
    dt = space.dt
    Mx = space.spatial(space)
    W1 = Mx / dt + dt * space.spatial(space, 1, 1)
    W2 = Mx / dt
    shape = (space.n_field, space.n_field)

    def block(t_test, t_trial):
        T = temporal_trace_matrix(space.tbasis, space.tbasis, t_test, t_trial)
        return _pair_blocks(sp.kron(T, W1, format="csr"), None, None,
                            sp.kron(T, W2, format="csr"), shape)

    return {"plus": block(0.0, 0.0), "minus": block(1.0, 1.0),
            "cross": block(0.0, 1.0)}


def assemble_dfb_extras(primal, dual, data, lam):
    """Extra terms that make the slab-wise primal operator invertible.

    Returns the measurement-region observer term, the lateral boundary
    penalty with weight lam / h (both tested against y1), and the upwind
    jump couplings tested against the incoming dual traces:
    "coupling_diag" acts on the later slab's coefficients, "coupling_sub"
    on the earlier slab's (to be subtracted).
    """
    if lam <= 0:
        raise ValueError(f"boundary penalty weight must be positive, got {lam}")
    shape = (dual.n_field, primal.n_field)
    nitsche = _pair_blocks(
        (lam / primal.mesh.h)
        * sp.kron(dual.temporal(primal), dual.boundary_penalty(primal)),
        None, None, None, shape,
    )
    Mdp = dual.spatial(primal)

    def coupling(t_trial):
        # y2 tests the jump of u1 and y1 that of u2, at the dual slab start
        T = temporal_trace_matrix(dual.tbasis, primal.tbasis, 0.0, t_trial)
        C = sp.kron(T, Mdp, format="csr")
        return _pair_blocks(None, C, C, None, shape)

    return {
        "observer": assemble_data_mass(dual, primal, data),
        "nitsche": nitsche,
        "coupling_diag": coupling(0.0),
        "coupling_sub": coupling(1.0),
    }


def assemble_dual_interface_mass(dual):
    """Incoming-trace mass of the dual pair, weight dt.  No block of the
    system uses it (the dual stabilizer has no interface term, and adding
    one would change the discretization); acceptance criterion 9 checks
    that it is symmetric positive semidefinite."""
    T = temporal_trace_matrix(dual.tbasis, dual.tbasis, 0.0, 0.0)
    B = sp.kron(T, dual.spatial(dual), format="csr")
    return dual.dt * _pair_blocks(B, None, None, B, B.shape)
