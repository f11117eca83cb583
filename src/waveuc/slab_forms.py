"""Per-slab bilinear forms on tensor-product space-time slabs.

A slab couples a spatial Lagrange space of degree k on the interval mesh
with a temporal polynomial space of degree q on one time slab.  Each field
pair (displacement, velocity) is stored as two stacked field blocks; within
a field block the coefficient layout is (temporal mode, spatial dof),
flattened C-style, so a field block has (q+1) * n_x entries.

Every form here returns its matrix as canonical Triplets: int32 index and
float value arrays in CSR order, which tocsr makes into one scipy CSR
matrix.  int32 is scipy's index type for every block this package can
build: an int64 one would need 2^31 rows, 16 GiB per slab vector.  A
caller that keeps a matrix makes its CSR once; one that only reads the
entries, as precond's banded LUs do, takes the triplets as they are.  Each
sum and product adds in the order scipy's sparse algebra does, so every
matrix is bitwise the one scipy would make.

Every slab block is a sum of kron(temporal factor, spatial factor) terms
over one slab's field-pair coefficients, given as a list of terms that
_tensor_block turns into one block.  A SlabSpace keeps the factors it is
tested with, so a system builds each distinct factor once.  Every spatial
form is an element integral, one local matrix scattered over element_dofs
(the global dofs of each element), or a product of point evaluations
(_points), with no element loop.  The temporal factors of the blocks that
couple neighbouring slabs are products of slab-endpoint values
(temporal_trace_matrix).
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .basis import SpatialBasis, TemporalBasis, gauss_rule

__all__ = [
    "Triplets",
    "SlabSpace",
    "element_dofs",
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
    "jump_weight",
    "assemble_dfb_extras",
    "assemble_dual_interface_mass",
    "assemble_embedding",
]


class Triplets(NamedTuple):
    """A sparse matrix of the given shape as its entries: vals[e] at row
    rows[e] and column cols[e].

    Canonical triplets are sorted by row, then by column, with no two
    entries at one place: the order and pattern of a CSR matrix, which
    tocsr makes from them in one step.  Every form of this module returns
    canonical triplets; a block that only feeds a band (precond._Band) may
    hold several entries at one place, which the band sums in their order.
    A transpose is the .T view of the one CSR matrix (scipy's CSC over the
    same arrays), never a second, re-sorted set of triplets.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @classmethod
    def of(cls, matrix):
        """The stored entries of the CSR matrix, in its order."""
        counts = np.diff(matrix.indptr)
        rows = np.repeat(np.arange(matrix.shape[0], dtype=counts.dtype), counts)
        return cls(rows, matrix.indices, matrix.data, matrix.shape)

    @classmethod
    def concatenated(cls, shape, parts):
        """Triplets of the given shape holding the entries of all parts
        (triplets, or their (rows, cols, vals)), one part after the other."""
        return cls(*(np.concatenate(x) for x in zip(*(p[:3] for p in parts))),
                   shape)

    def scaled(self, factor):
        """The entries times factor, as scipy scales a sparse matrix (also
        for its division by s, which multiplies by 1 / s)."""
        return self._replace(vals=self.vals * factor)

    def tocsr(self):
        """The CSR matrix of canonical triplets, with int32 indices."""
        # the rows are sorted: row i starts after the entries of rows < i
        indptr = np.searchsorted(self.rows, np.arange(self.shape[0] + 1))
        return sp.csr_matrix(
            (self.vals, self.cols.astype(np.int32, copy=False),
             indptr.astype(np.int32)), shape=self.shape)


def _summed(rows, cols, vals, shape, drop_zeros=False):
    """Canonical triplets of the entries vals at (rows, cols), the entries
    at one place summed in the order given, from the first one on: -0.0,
    the exact identity of +, starts each sum, so the sums are bitwise
    those of scipy's conversion of COO triplets to CSR.  With drop_zeros a
    sum equal to zero is not kept, as a sparse sum or product drops it."""
    keys = rows.astype(np.int64) * shape[1] + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.full(np.count_nonzero(first), -0.0)
    np.add.at(sums, np.cumsum(first) - 1, vals[order])
    keys = keys[first]
    if drop_zeros:
        keep = sums != 0
        keys, sums = keys[keep], sums[keep]
    r, c = np.divmod(keys, shape[1])
    return Triplets(r.astype(np.int32), c.astype(np.int32), sums, shape)


def _sum(*parts):
    """The sparse sum of canonical triplets of one shape, left to right,
    with no zero stored: bitwise scipy's sum of the CSR matrices."""
    return _summed(*Triplets.concatenated(parts[0].shape, parts),
                   drop_zeros=True)


class SlabSpace:
    """Tensor-product trial/test space on one uniform time slab.

    spatial, temporal and boundary_penalty build the factors of the forms
    tested with this space once per trial space's orders, derivative pair
    and data mask, and hand back the same factor on every later call: the
    spatial ones as canonical Triplets, the temporal ones as small dense
    arrays.
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


def _points(mesh, basis, elems, ref, deriv=0):
    """Point evaluations over the global dofs, as canonical triplets whose
    row r holds the values (deriv = 0) or physical derivatives of the basis
    of element elems[r] at reference point ref[r] (or at ref, if scalar).
    Basis values that vanish exactly are not stored."""
    cols = element_dofs(mesh, basis.degree)[elems]
    vals = np.broadcast_to(
        basis.eval(np.asarray(ref, dtype=float), deriv) / mesh.h**deriv,
        cols.shape).ravel()
    rows = np.repeat(np.arange(len(cols)), basis.degree + 1)
    keep = vals != 0
    shape = (len(cols), basis.degree * mesh.n_elems + 1)
    return Triplets(rows[keep].astype(np.int32),
                    cols.ravel()[keep].astype(np.int32), vals[keep], shape)


def _point_product(P, Q, weights=None):
    """P^T diag(weights) Q for point evaluations P and Q at the same points
    (canonical triplets, one row per point), as scipy's sparse product
    makes it: entry (i, j) sums (w_r P[r, i]) Q[r, j] over the points r in
    order, and a zero sum is not stored."""
    q_len = np.bincount(Q.rows, minlength=P.shape[0])
    q_start = np.cumsum(q_len) - q_len
    # every pair of a P entry and a Q entry at one point, P's in its order
    count = q_len[P.rows]
    p = np.repeat(np.arange(len(P.rows)), count)
    q = (np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)
         + q_start[P.rows[p]])
    left = P.vals if weights is None else weights[P.rows] * P.vals
    return _summed(P.cols[p], Q.cols[q], left[p] * Q.vals[q],
                   (P.shape[1], Q.shape[1]), drop_zeros=True)


def spatial_matrix(mesh, test, trial, d_test=0, d_trial=0, mask=None):
    """Element-wise integral of D^a(test_i) * D^b(trial_j) over the mesh.

    test/trial are SpatialBasis objects; derivatives are physical ones.
    With mask given, only the masked elements contribute.  Second
    derivatives are taken element by element (no distributional part), which
    is what the interior least-squares terms need.  The element matrices
    are summed where elements share a vertex, and zeros are kept.
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
    return _summed(rows.ravel(), cols.ravel(), vals.ravel(),
                   (test.degree * mesh.n_elems + 1,
                    trial.degree * mesh.n_elems + 1))


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


def _endpoints(mesh, basis, deriv=0):
    """Point evaluations at the two domain endpoints (left row first)."""
    return _points(mesh, basis, [0, mesh.n_elems - 1], [0.0, 1.0], deriv)


def boundary_penalty_matrix(mesh, test, trial):
    """Sum over the two domain endpoints of test_i * trial_j."""
    return _point_product(_endpoints(mesh, test), _endpoints(mesh, trial))


# the outward normals at the left and right domain endpoints
_NORMALS = np.array([-1.0, 1.0])


def boundary_flux_matrix(mesh, test, trial):
    """Sum over the two endpoints of test_i * (normal derivative of
    trial_j)."""
    return _point_product(_endpoints(mesh, test),
                          _endpoints(mesh, trial, deriv=1), _NORMALS)


def gradient_jump_matrix(mesh, basis):
    """Facet penalty: sum over interior vertices of h * [grad u] * [grad v].

    The facet measure in 1D is a point evaluation; the weight h makes the
    penalty scale like the continuous-interior-penalty gradient-jump term.
    The penalty is h G^T G, where row i of G is the left minus the right
    derivative at interior vertex i.
    """
    v = np.arange(1, mesh.n_elems)
    G = _sum(_points(mesh, basis, v - 1, 1.0, deriv=1),
             _points(mesh, basis, v, 0.0, deriv=1).scaled(-1.0))
    return _point_product(G, G).scaled(mesh.h)


def _spatial_embedding(mesh, fine, coarse):
    """Coefficients of coarse spatial functions expressed in the fine nodal
    basis (same mesh, lower degree): the coarse basis evaluated at the fine
    nodes, each shared vertex node taken from the element to its right."""
    kf = fine.degree
    nodes = np.arange(kf * mesh.n_elems + 1)
    elems = np.minimum(nodes // kf, mesh.n_elems - 1)
    return _points(mesh, coarse, elems, fine.nodes[nodes - kf * elems])


def _tensor_block(shape, terms):
    """One block, as canonical triplets, from a list of tensor-product
    terms.

    shape holds the sizes of the block's row fields and of its column
    fields.  A term (i, j, scale, T, S), with T a small dense temporal
    matrix and S a spatial factor of shape (n, m) given as canonical
    Triplets, puts scale * kron(T, S) on row field i and column field j:
    the entry scale * (T[a, b] * S[r, c]) at (a * n + r, b * m + c) within
    them.  As with kron, a zero of T puts no entries and a stored zero of
    S is kept.  Several terms on one field pair are summed as a sparse sum
    would: entry by entry, left to right in the order of terms, with no
    zero stored.  So the block is bitwise the bmat of the field pairs, each
    the kron of its one term or the sparse sum of its terms' krons.  The
    field pairs' entries go to their block rows and columns, and one
    stable sort by row, then column, puts them all in CSR order.
    """
    row_at = np.cumsum((0,) + tuple(shape[0]))
    col_at = np.cumsum((0,) + tuple(shape[1]))
    size = (int(row_at[-1]), int(col_at[-1]))
    groups = {}
    for i, j, scale, T, S in terms:
        groups.setdefault((i, j), []).append((scale, np.asarray(T), S))
    rows, cols, vals = [], [], []
    for (i, j), group in groups.items():
        (n, m), n_b = group[0][2].shape, group[0][1].shape[1]
        r, c, val, keep = _pair_entries(group, m)
        # temporal pair (a, b) is row a * n_b + b of the values
        a, b = np.divmod(np.arange(len(val))[:, None], n_b)
        rows.append((row_at[i] + n * a + r)[keep])
        cols.append((col_at[j] + m * b + c)[keep])
        vals.append(val[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(rows * size[1] + cols, kind="stable")
    return Triplets(rows[order].astype(np.int32),
                    cols[order].astype(np.int32),
                    np.concatenate(vals)[order], size)


def _pair_entries(group, m):
    """The entries of one field pair's terms (scale, T, S), S canonical
    triplets with m columns: their spatial rows and columns (canonical),
    the values with one row per temporal pair (a, b), and which of the
    values to keep.  One term keeps the stored zeros of S; several are
    summed over the union of their patterns as a sparse sum would: left to
    right in the order given, with no zero stored."""
    values = [scale * (T.ravel()[:, None] * S.vals) for scale, T, S in group]
    if len(group) == 1:
        (_, T, S), = group
        keep = np.broadcast_to((T.ravel() != 0)[:, None], values[0].shape)
        return S.rows, S.cols, values[0], keep
    keys = [m * S.rows.astype(np.int64) + S.cols for _, _, S in group]
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
        (0, 0, 1.0, Mt, _sum(Kx, Fx.scaled(-1.0))),
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
        "J": [(0, 0, 1.0, tmat(0, 0), gradient_jump_matrix(space.mesh,
                                                           space.xbasis))],
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


def assemble_primal_stabilizers(space):
    """Primal residual-type stabilizers on one slab.

    Returns a dict with the gradient-jump penalty "J", the interior
    least-squares term "G", the velocity-compatibility term "I0", the
    lateral boundary penalty "R" and their sum "Sh".  All are symmetric
    field-pair matrices; the sum is positive semidefinite.
    """
    shape = _pair_shape(space, space)
    parts = {name: _tensor_block(shape, part)
             for name, part in _primal_stabilizer_terms(space).items()}
    parts["Sh"] = assemble_Sh(space)
    return parts


def assemble_Sh(space):
    """The sum ((J + G) + I0) + R of assemble_primal_stabilizers, as one
    block from the terms of the parts, built without the parts."""
    terms = _primal_stabilizer_terms(space)
    return _tensor_block(_pair_shape(space, space),
                         [term for name in ("J", "G", "I0", "R")
                          for term in terms[name]])


def assemble_dual_stabilizer(space):
    """Dual-pair stabilizer: full H1-type mass on z1 (with lateral boundary
    weight 1/h) and plain mass on z2.  Symmetric positive definite."""
    Mt = space.temporal(space)
    Mx = space.spatial(space)
    Kx = space.spatial(space, 1, 1)
    Pb = space.boundary_penalty(space)
    return _tensor_block(_pair_shape(space, space), [
        (0, 0, 1.0, Mt, _sum(Mx, Kx, Pb.scaled(1 / space.mesh.h))),
        (1, 1, 1.0, Mt, Mx),
    ])


def assemble_data_mass(test_space, trial_space, data):
    """Mass restricted to the measurement region, the element mask data,
    acting on the first field only.  Rows run over test_space, columns over
    trial_space."""
    Mt = test_space.temporal(trial_space)
    Mw = test_space.spatial(trial_space, mask=data)
    return _tensor_block(_pair_shape(test_space, trial_space),
                         [(0, 0, 1.0, Mt, Mw)])


def _jump_terms(space, shape, T):
    """The time-interface jump stabilizer with temporal factor T, as
    canonical triplets: the spatial weights W1 = Mx / dt + dt Kx on the
    first field and W2 = Mx / dt on the second."""
    dt = space.dt
    Mx = space.spatial(space)
    W2 = Mx.scaled(1 / dt)
    W1 = _sum(W2, space.spatial(space, 1, 1).scaled(dt))
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


def jump_weight(space):
    """The minus block of interface_jump_blocks on the last temporal mode of
    each field, W = blockdiag(W1, W2) over the two fields' spatial dofs.
    For q >= 1 the temporal basis is nodal at both slab ends, so every jump
    block restricted to the slab traces is this one block."""
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
                         [(0, 0, dual.dt, T, Mx),
                          (1, 1, dual.dt, T, Mx)])


def assemble_embedding(fine, coarse):
    """Coefficients of the coarse slab space's field pairs expressed in the
    fine one's basis (same mesh and slab, orders no higher): rows run over
    fine's field pair, columns over coarse's.  Each field takes the coarse
    temporal basis at the fine temporal nodes times the coarse spatial
    basis at the fine spatial nodes (_spatial_embedding)."""
    Et = coarse.tbasis.eval(fine.tbasis.nodes)
    Ex = _spatial_embedding(fine.mesh, fine.xbasis, coarse.xbasis)
    return _tensor_block(_pair_shape(fine, coarse),
                         [(0, 0, 1.0, Et, Ex), (1, 1, 1.0, Et, Ex)])
