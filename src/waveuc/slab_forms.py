"""Per-slab bilinear form assembly on tensor-product space-time slabs.

A slab couples a spatial Lagrange space of degree k on the interval mesh
with a temporal polynomial space of degree q on one time slab.  Each field
pair (displacement, velocity) is stored as two stacked field blocks; within
a field block the coefficient layout is (temporal mode, spatial dof),
flattened C-style, so a field block has (q+1) * n_x entries.

Every block is a sum of kron(temporal factor, spatial factor) terms over
one slab's field-pair coefficients, given as a list of terms that
_tensor_block turns into one CSR matrix.  A SlabSpace keeps the factors it
is tested with, so a system builds each distinct factor once.
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
    "assemble_Sh",
    "assemble_dual_stabilizer",
    "assemble_data_mass",
    "interface_jump_blocks",
    "interface_jump_weight",
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


def _tensor_block(shape, terms, format="csr"):
    """One block, in the given scipy format, from a list of tensor-product
    terms.

    shape holds the sizes of the block's row fields and of its column
    fields.  A term (i, j, scale, T, S), with T a small dense temporal
    matrix and S a sparse spatial one of shape (n, m), puts
    scale * kron(T, S) on row field i and column field j: the entry
    scale * (T[a, b] * S[r, c]) at (a * n + r, b * m + c) within them.
    As with kron, a zero of T puts no entries and a stored zero of S is
    kept.  Several terms on one field pair are summed as a sparse sum
    would: entry by entry, left to right in the order of terms, with no
    zero stored.  So the block is bitwise the bmat of the field pairs, each
    the kron of its one term or the sparse sum of its terms' krons.  The
    entries make one COO matrix; no two share a place, so converting it
    adds nothing, and for spatial factors with sorted rows, whose entries
    come out in column order within each row, it sorts nothing either.
    """
    row_at = np.cumsum((0,) + tuple(shape[0]))
    col_at = np.cumsum((0,) + tuple(shape[1]))
    # scipy's own index type for a matrix of this size
    index = np.int32 if max(row_at[-1], col_at[-1]) < 2**31 else np.int64
    groups = {}
    for i, j, scale, T, S in terms:
        groups.setdefault((i, j), []).append(
            (scale, np.asarray(T), S.tocsr()))
    rows, cols, vals = [], [], []
    for i, j in sorted(groups):
        group = groups[i, j]
        (n, m), (n_a, n_b) = group[0][2].shape, group[0][1].shape
        r, c, val, keep = _pair_entries(group, m)
        a, b = np.divmod(np.arange(n_a * n_b, dtype=index), n_b)
        row = ((row_at[i] + n * a).astype(index)[:, None]
               + r.astype(index, copy=False))
        col = ((col_at[j] + m * b).astype(index)[:, None]
               + c.astype(index, copy=False))
        if not keep.all():
            row, col, val = row[keep], col[keep], val[keep]
        rows.append(row.ravel())
        cols.append(col.ravel())
        vals.append(val.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_at[-1], col_at[-1])).asformat(format)


def _pair_entries(group, m):
    """The entries of one field pair's terms (scale, T, S), S in CSR form
    with m columns: their spatial rows and columns, the values with one row
    per temporal pair (a, b), and which of them to keep: a mask over the
    values or over their rows.  One term keeps the stored zeros of S;
    several are summed over the union of their patterns as a sparse sum
    would: left to right in the order given, with no zero stored."""
    values = [scale * (T.ravel()[:, None] * S.data) for scale, T, S in group]
    rows = [np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
            for _, _, S in group]
    if len(group) == 1:
        (_, T, S), = group
        return rows[0], S.indices, values[0], T.ravel() != 0
    keys = [m * r + S.indices for r, (_, _, S) in zip(rows, group)]
    union, at = np.unique(np.concatenate(keys), return_inverse=True)
    # summed onto zeros: a sum that is zero is dropped anyway, and a zero
    # added to a nonzero sum leaves it as it is
    total = np.zeros((len(values[0]), len(union)))
    for v, u in zip(values, np.split(at, np.cumsum([len(k) for k in keys]))):
        total[:, u] += v
    r, c = np.divmod(union, m)
    return r, c, total, total != 0


def _pair_shape(test, trial):
    """Field sizes of a field-pair block: test's rows, trial's columns."""
    return (test.n_field,) * 2, (trial.n_field,) * 2


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
    return _tensor_block(_pair_shape(dual, primal), [
        (0, 0, 1.0, Mt, Kx - Fx),
        (0, 1, 1.0, Ct, Mx),
        (1, 0, 1.0, Ct, Mx),
        (1, 1, -1.0, Mt, Mx),
    ])


def _primal_stabilizer_terms(space):
    """The terms of the four primal stabilizers, by name."""
    h = space.mesh.h
    tmat = lambda a, b: space.temporal(space, a, b)
    Mx = space.spatial(space)
    return {
        "J": [(0, 0, 1.0, tmat(0, 0),
               gradient_jump_matrix(space.mesh, space.xbasis))],
        # element-wise residual (dt u2 - Laplace u1) against itself, weight h^2
        "G": [
            (0, 0, h**2, tmat(0, 0), space.spatial(space, 2, 2)),
            (0, 1, -(h**2), tmat(0, 1), space.spatial(space, 2, 0)),
            (1, 0, -(h**2), tmat(1, 0), space.spatial(space, 0, 2)),
            (1, 1, h**2, tmat(1, 1), Mx),
        ],
        # (u2 - dt u1) against (w2 - dt w1)
        "I0": [
            (0, 0, 1.0, tmat(1, 1), Mx),
            (0, 1, -1.0, tmat(1, 0), Mx),
            (1, 0, -1.0, tmat(0, 1), Mx),
            (1, 1, 1.0, tmat(0, 0), Mx),
        ],
        "R": [(0, 0, 1.0 / h, tmat(0, 0), space.boundary_penalty(space))],
    }


def _stabilizer_sum(space, terms):
    """The sum ((J + G) + I0) + R of the primal stabilizers, as one block,
    from the terms of the parts."""
    return _tensor_block(_pair_shape(space, space),
                         [term for name in ("J", "G", "I0", "R")
                          for term in terms[name]])


def assemble_primal_stabilizers(space):
    """Primal residual-type stabilizers on one slab.

    Returns a dict with the gradient-jump penalty "J", the interior
    least-squares term "G", the velocity-compatibility term "I0", the
    lateral boundary penalty "R" and their sum "Sh".  All are symmetric
    field-pair matrices; the sum is positive semidefinite.
    """
    terms = _primal_stabilizer_terms(space)
    parts = {name: _tensor_block(_pair_shape(space, space), part)
             for name, part in terms.items()}
    parts["Sh"] = _stabilizer_sum(space, terms)
    return parts


def assemble_Sh(space):
    """The sum Sh of assemble_primal_stabilizers, built without its parts."""
    return _stabilizer_sum(space, _primal_stabilizer_terms(space))


def assemble_dual_stabilizer(space):
    """Dual-pair stabilizer: full H1-type mass on z1 (with lateral boundary
    weight 1/h) and plain mass on z2.  Symmetric positive definite."""
    Mt = space.temporal(space)
    Mx = space.spatial(space)
    Kx = space.spatial(space, 1, 1)
    Pb = space.boundary_penalty(space)
    return _tensor_block(_pair_shape(space, space), [
        (0, 0, 1.0, Mt, Mx + Kx + Pb / space.mesh.h),
        (1, 1, 1.0, Mt, Mx),
    ])


def assemble_data_mass(test_space, trial_space, data):
    """Mass restricted to the measurement region, acting on the first field
    only.  Rows run over test_space, columns over trial_space."""
    Mt = test_space.temporal(trial_space)
    Mw = test_space.spatial(trial_space, mask=data.element_mask)
    return _tensor_block(_pair_shape(test_space, trial_space),
                         [(0, 0, 1.0, Mt, Mw)])


def _jump_terms(space, shape, T):
    """The terms of the time-interface jump stabilizer with temporal factor
    T: the spatial weights W1 = Mx / dt + dt Kx on the first field and
    W2 = Mx / dt on the second."""
    dt = space.dt
    Mx = space.spatial(space)
    W1 = Mx / dt + dt * space.spatial(space, 1, 1)
    W2 = Mx / dt
    return _tensor_block(shape, [(0, 0, 1.0, T, W1), (1, 1, 1.0, T, W2)])


def interface_jump_blocks(space):
    """Coupling blocks of the time-interface jump stabilizer.

    At each interior slab interface the stabilizer penalizes the jumps of
    both fields, with weights 1/dt on the values and dt on the gradient of
    the first field.  The quadratic form splits into a plus-plus block
    ("plus"), a minus-minus block ("minus") and the cross block ("cross",
    rows on the later slab, columns on the earlier one, to be subtracted).
    """
    shape = _pair_shape(space, space)

    def block(t_test, t_trial):
        T = temporal_trace_matrix(space.tbasis, space.tbasis, t_test, t_trial)
        return _jump_terms(space, shape, T)

    return {"plus": block(0.0, 0.0), "minus": block(1.0, 1.0),
            "cross": block(0.0, 1.0)}


def interface_jump_weight(space):
    """The minus block of interface_jump_blocks on the last temporal mode of
    each field, W = blockdiag(W1, W2) over the two fields' spatial dofs.
    For q >= 1 the temporal basis is nodal at both slab ends, so every
    jump block restricted to the slab traces is this one block."""
    T = temporal_trace_matrix(space.tbasis, space.tbasis, 1.0, 1.0)
    return _jump_terms(space, ((space.n_x,) * 2,) * 2, T[-1:, -1:])


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
    shape = _pair_shape(dual, primal)
    nitsche = _tensor_block(shape, [
        (0, 0, lam / primal.mesh.h, dual.temporal(primal),
         dual.boundary_penalty(primal))])
    Mdp = dual.spatial(primal)

    def coupling(t_trial):
        # y2 tests the jump of u1 and y1 that of u2, at the dual slab start
        T = temporal_trace_matrix(dual.tbasis, primal.tbasis, 0.0, t_trial)
        return _tensor_block(shape, [(0, 1, 1.0, T, Mdp), (1, 0, 1.0, T, Mdp)])

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
    Mx = dual.spatial(dual)
    return _tensor_block(_pair_shape(dual, dual),
                         [(0, 0, dual.dt, T, Mx), (1, 1, dual.dt, T, Mx)])
