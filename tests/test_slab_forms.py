import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from waveuc.basis import SpatialBasis, TemporalBasis, gauss_rule
from waveuc.mesh import build_interval_mesh, mark_data_domain
from waveuc.slab_forms import (
    SlabSpace,
    Triplets,
    _spatial_embedding,
    _tensor_block,
    assemble_A,
    assemble_data_mass,
    assemble_dfb_extras,
    assemble_dual_interface_mass,
    assemble_dual_stabilizer,
    assemble_primal_stabilizers,
    boundary_flux_matrix,
    boundary_penalty_matrix,
    element_dofs,
    gradient_jump_matrix,
    interface_jump_blocks,
    spatial_matrix,
    temporal_matrix,
    temporal_trace_matrix,
)
from waveuc.precond import build_preconditioner

from conftest import make_system, pair_coeffs, same_csr


def eval_elem(space, coeffs, field, tau, e, ref, dx=0, dtime=0):
    """One-sided evaluation inside element e at reference coords (tau, ref)."""
    psi = space.tbasis.eval(np.array(tau), deriv=dtime) / space.dt**dtime
    phi = space.xbasis.eval(np.array(ref), deriv=dx) / space.mesh.h**dx
    k = space.degree_x
    local = coeffs[field][:, e * k : e * k + k + 1]
    return float(psi @ local @ phi)


def quadrature_form_A(primal, dual, U, Y):
    """Direct space-time quadrature of the wave form, oracle for assemble_A."""
    mesh, dt, h = primal.mesh, primal.dt, primal.mesh.h
    tr = gauss_rule(max(primal.degree_t, dual.degree_t) + 3)
    xr = gauss_rule(max(primal.degree_x, dual.degree_x) + 3)
    total = 0.0
    for wt, tq in zip(tr.weights, tr.points):
        for e in range(mesh.n_elems):
            for wx, xq in zip(xr.weights, xr.points):
                w = dt * wt * h * wx
                du2 = eval_elem(primal, U, 1, tq, e, xq, dtime=1)
                y1 = eval_elem(dual, Y, 0, tq, e, xq)
                dxu1 = eval_elem(primal, U, 0, tq, e, xq, dx=1)
                dxy1 = eval_elem(dual, Y, 0, tq, e, xq, dx=1)
                du1 = eval_elem(primal, U, 0, tq, e, xq, dtime=1)
                u2 = eval_elem(primal, U, 1, tq, e, xq)
                y2 = eval_elem(dual, Y, 1, tq, e, xq)
                total += w * (du2 * y1 + dxu1 * dxy1 + (du1 - u2) * y2)
        # lateral boundary: -(normal derivative of u1) * y1
        for (e, ref, nrm) in ((0, 0.0, -1.0), (mesh.n_elems - 1, 1.0, 1.0)):
            dxu1 = eval_elem(primal, U, 0, tq, e, ref, dx=1)
            y1 = eval_elem(dual, Y, 0, tq, e, ref)
            total -= dt * wt * nrm * dxu1 * y1
    return total


def quadrature_stabilizer_energy(space, V):
    """Direct quadrature of the four primal stabilizer terms for one vector."""
    mesh, dt, h = space.mesh, space.dt, space.mesh.h
    tr = gauss_rule(space.degree_t + 3)
    xr = gauss_rule(space.degree_x + 3)
    J = G = I0 = R = 0.0
    for wt, tq in zip(tr.weights, tr.points):
        w_t = dt * wt
        for v in mesh.interior_facets:
            dl = eval_elem(space, V, 0, tq, v - 1, 1.0, dx=1)
            dr = eval_elem(space, V, 0, tq, v, 0.0, dx=1)
            J += w_t * h * (dl - dr) ** 2
        for e in range(mesh.n_elems):
            for wx, xq in zip(xr.weights, xr.points):
                w = w_t * h * wx
                resid = eval_elem(space, V, 1, tq, e, xq, dtime=1) - eval_elem(
                    space, V, 0, tq, e, xq, dx=2
                )
                G += w * h**2 * resid**2
                compat = eval_elem(space, V, 1, tq, e, xq) - eval_elem(
                    space, V, 0, tq, e, xq, dtime=1
                )
                I0 += w * compat**2
        for (e, ref) in ((0, 0.0), (mesh.n_elems - 1, 1.0)):
            R += w_t / h * eval_elem(space, V, 0, tq, e, ref) ** 2
    return {"J": J, "G": G, "I0": I0, "R": R}


# -- scalar building blocks -------------------------------------------------


def test_temporal_matrices_q1_analytic():
    tb = TemporalBasis(1)
    dt = 0.3
    Mt = temporal_matrix(tb, tb, 0, 0, dt)
    assert Mt == pytest.approx(dt * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]))
    Ct = temporal_matrix(tb, tb, 0, 1, dt)
    assert Ct == pytest.approx(np.array([[-0.5, 0.5], [-0.5, 0.5]]))
    At = temporal_matrix(tb, tb, 1, 1, dt)
    assert At == pytest.approx(np.array([[1, -1], [-1, 1]]) / dt)


def test_spatial_mass_p1_analytic():
    mesh = build_interval_mesh(0, 1, 2)
    b = SpatialBasis(1)
    M = spatial_matrix(mesh, b, b).tocsr().toarray()
    h = 0.5
    expected = h / 6 * np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]])
    assert M == pytest.approx(expected)


def test_spatial_stiffness_p1_analytic():
    mesh = build_interval_mesh(0, 1, 2)
    b = SpatialBasis(1)
    K = spatial_matrix(mesh, b, b, 1, 1).tocsr().toarray()
    expected = 2.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert K == pytest.approx(expected)


def test_masked_spatial_mass():
    mesh = build_interval_mesh(0, 1, 4)
    data = mark_data_domain(mesh, [[0, 0.25]])
    b = SpatialBasis(1)
    M = spatial_matrix(mesh, b, b, mask=data.element_mask).tocsr().toarray()
    assert M[:2, :2] == pytest.approx(0.25 / 6 * np.array([[2, 1], [1, 2]]))
    assert np.all(M[2:] == 0) and np.all(M[:, 2:] == 0)


def test_boundary_matrices():
    mesh = build_interval_mesh(0, 1, 2)
    b = SpatialBasis(1)
    P = boundary_penalty_matrix(mesh, b, b).tocsr().toarray()
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[2, 2] = 1.0
    assert P == pytest.approx(expected)
    F = boundary_flux_matrix(mesh, b, b).tocsr().toarray()
    # at x=0 the outward normal is -1 and the hat slope is (-1/h, 1/h)
    assert F[0] == pytest.approx([1 / mesh.h, -1 / mesh.h, 0])
    assert F[2] == pytest.approx([0, -1 / mesh.h, 1 / mesh.h])


def test_gradient_jump_p1_analytic():
    mesh = build_interval_mesh(0, 1, 2)
    b = SpatialBasis(1)
    J = gradient_jump_matrix(mesh, b).tocsr().toarray()
    # single interior vertex; jump vector is (1, -2, 1)/h, weight h
    g = np.array([1.0, -2.0, 1.0]) / mesh.h
    assert J == pytest.approx(mesh.h * np.outer(g, g))


def test_gradient_jump_vanishes_for_affine():
    mesh = build_interval_mesh(0, 1, 4)
    for k in (1, 2):
        b = SpatialBasis(k)
        nodes = np.linspace(0, 1, k * mesh.n_elems + 1)
        c = 2.0 * nodes - 0.7
        J = gradient_jump_matrix(mesh, b).tocsr()
        assert c @ (J @ c) == pytest.approx(0.0, abs=1e-13)


# -- wave operator ----------------------------------------------------------


def test_A_closure_on_affine_displacement():
    # u1 = x, u2 = 0: stiffness and boundary flux cancel exactly
    mesh = build_interval_mesh(0, 1, 1)
    space = SlabSpace(mesh, 1, 1, dt=0.5)
    A = assemble_A(space, space).tocsr()
    U = np.zeros((2, space.n_modes, space.n_x))
    U[0] = np.array([0.0, 1.0])  # nodal values of x, constant in time
    assert np.linalg.norm(A @ U.ravel()) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("orders", [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2)])
def test_A_matches_direct_quadrature(orders, rng):
    k, q, kstar, qstar = orders
    mesh = build_interval_mesh(0, 1, 3)
    primal = SlabSpace(mesh, k, q, dt=0.25)
    dual = SlabSpace(mesh, kstar, qstar, dt=0.25)
    A = assemble_A(primal, dual).tocsr()
    for _ in range(3):
        U = pair_coeffs(primal, rng)
        Y = pair_coeffs(dual, rng)
        assembled = Y.ravel() @ (A @ U.ravel())
        direct = quadrature_form_A(primal, dual, U, Y)
        assert assembled == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_A_vanishes_on_strong_solution():
    # the wave form tested against every dual basis function is zero for a
    # solution of the wave equation; quadrature is the only error source
    mesh = build_interval_mesh(0, 1, 8)
    dual = SlabSpace(mesh, 3, 2, dt=0.25)
    dx_u1 = lambda t, x: np.pi * np.cos(np.pi * t) * np.cos(np.pi * x)
    dt_u2 = lambda t, x: -np.pi**2 * np.cos(np.pi * t) * np.sin(np.pi * x)

    tr = gauss_rule(10)
    xr = gauss_rule(10)
    k = dual.degree_x
    phi = dual.xbasis.eval(xr.points)
    dphi = dual.xbasis.eval(xr.points, deriv=1) / mesh.h
    vec = np.zeros((dual.n_modes, dual.n_x))
    for wt, tq in zip(tr.weights, tr.points):
        t = dual.dt * tq
        psi = dual.tbasis.eval(np.array(tq))
        for e in range(mesh.n_elems):
            x = mesh.vertices[e] + mesh.h * xr.points
            local = (xr.weights * dt_u2(t, x)) @ phi
            local += (xr.weights * dx_u1(t, x)) @ dphi
            vec[:, e * k : e * k + k + 1] += (
                dual.dt * wt * mesh.h * np.outer(psi, local)
            )
        for (dof, xb, nrm) in ((0, 0.0, -1.0), (dual.n_x - 1, 1.0, 1.0)):
            vec[:, dof] -= dual.dt * wt * nrm * dx_u1(t, xb) * psi
    # the rows tested by the second dual field pair with u2 - dt u1 = 0
    assert np.abs(vec).max() <= 1e-8


# -- stabilizers ------------------------------------------------------------


@pytest.mark.parametrize("k,q", [(1, 1), (2, 1), (2, 2)])
def test_primal_stabilizer_matches_direct_quadrature(k, q, rng):
    mesh = build_interval_mesh(0, 1, 3)
    space = SlabSpace(mesh, k, q, dt=0.25)
    parts = {name: part.tocsr()
             for name, part in assemble_primal_stabilizers(space).items()}
    V = pair_coeffs(space, rng)
    v = V.ravel()
    direct = quadrature_stabilizer_energy(space, V)
    for name in ("J", "G", "I0", "R"):
        assert v @ (parts[name] @ v) == pytest.approx(
            direct[name], rel=1e-10, abs=1e-12
        )
    total = sum(direct.values())
    assert v @ (parts["Sh"] @ v) == pytest.approx(total, rel=1e-10)
    assert total >= 0


def test_stabilizers_vanish_on_compatible_affine_data():
    # u1 affine in space and time, u2 = du1/dt: J, G and I0 all vanish
    mesh = build_interval_mesh(0, 1, 4)
    space = SlabSpace(mesh, 1, 1, dt=0.5)
    nodes = np.linspace(0, 1, space.n_x)
    V = np.zeros((2, 2, space.n_x))
    V[0, 0] = 1.0 + nodes          # at slab start
    V[0, 1] = 1.0 + nodes + 0.5 * 3.0  # slope 3 in time
    V[1, :] = 3.0
    v = V.ravel()
    parts = {name: part.tocsr()
             for name, part in assemble_primal_stabilizers(space).items()}
    for name in ("J", "G", "I0"):
        assert v @ (parts[name] @ v) == pytest.approx(0.0, abs=1e-12)
    assert v @ (parts["R"] @ v) > 0


def test_stabilizer_symmetry():
    mesh = build_interval_mesh(0, 1, 3)
    space = SlabSpace(mesh, 2, 1, dt=0.25)
    for name, part in assemble_primal_stabilizers(space).items():
        mat = part.tocsr()
        assert abs(mat - mat.T).max() < 1e-12, name
    Sd = assemble_dual_stabilizer(space).tocsr()
    assert abs(Sd - Sd.T).max() < 1e-12


def test_boundary_penalty_scaling_in_h():
    space_a = SlabSpace(build_interval_mesh(0, 1, 2), 1, 1, dt=0.5)
    space_b = SlabSpace(build_interval_mesh(0, 1, 4), 1, 1, dt=0.5)
    Ra = assemble_primal_stabilizers(space_a)["R"].tocsr()
    Rb = assemble_primal_stabilizers(space_b)["R"].tocsr()
    # corner entry is Mt[0,0] / h, so halving h doubles it
    assert Rb[0, 0] == pytest.approx(2 * Ra[0, 0])


def test_dual_stabilizer_constant_value():
    mesh = build_interval_mesh(0, 1, 4)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    Sd = assemble_dual_stabilizer(space).tocsr()
    Z = np.zeros((2, 2, space.n_x))
    Z[0] = 1.0  # z1 constant 1, z2 = 0
    z = Z.ravel()
    expected = space.dt * (1.0 + 2.0 / mesh.h)
    assert z @ (Sd @ z) == pytest.approx(expected, rel=1e-12)


def test_dual_stabilizer_positive_definite():
    mesh = build_interval_mesh(0, 1, 3)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    Sd = assemble_dual_stabilizer(space).tocsr().toarray()
    assert np.linalg.eigvalsh(Sd).min() > 0


def test_data_mass_supported_on_marked_elements(rng):
    mesh = build_interval_mesh(0, 1, 4)
    data = mark_data_domain(mesh, [[0, 0.25], [0.75, 1]])
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    Mw = assemble_data_mass(space, space, data).tocsr().toarray()
    # velocity rows and columns are empty
    n_f = space.n_field
    assert np.all(Mw[n_f:] == 0) and np.all(Mw[:, n_f:] == 0)
    # spatial dofs of the unmarked middle elements do not couple
    middle = [2]  # interior node x = 0.5 of the P1 space
    for m in middle:
        for mode in range(space.n_modes):
            assert np.all(Mw[mode * space.n_x + m] == 0)


# -- time traces and interface coupling -------------------------------------


def trace_selections(space, V):
    """(t_test, t_trial, selected, modes) for every pair of slab endpoints
    and field of V: selected is the interface factor applied to the field's
    modes, which puts the trial endpoint's trace on the test endpoint's
    mode."""
    tb = space.tbasis
    for t_test in (0.0, 1.0):
        for t_trial in (0.0, 1.0):
            T = temporal_trace_matrix(tb, tb, t_test, t_trial)
            for field in (0, 1):
                yield t_test, t_trial, T @ V[field], V[field]


def test_traces_q0_identity(rng):
    # the one mode is constant in time: both endpoints select it
    space = SlabSpace(build_interval_mesh(0, 1, 2), 1, 0, dt=0.25)
    for _, _, selected, modes in trace_selections(space,
                                                  pair_coeffs(space, rng)):
        assert np.array_equal(selected, modes)


def test_traces_q1_select_endpoint_modes(rng):
    # Gauss-Lobatto modes: mode 0 is the slab start, mode 1 its end
    space = SlabSpace(build_interval_mesh(0, 1, 2), 1, 1, dt=0.25)
    for t_test, t_trial, selected, modes in trace_selections(
            space, pair_coeffs(space, rng)):
        expected = np.zeros_like(modes)
        expected[int(t_test)] = modes[int(t_trial)]
        assert np.array_equal(selected, expected)


def test_interface_jump_form_vanishes_for_continuous(rng):
    mesh = build_interval_mesh(0, 1, 2)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    blocks = {name: block.tocsr()
              for name, block in interface_jump_blocks(space).items()}
    prev = pair_coeffs(space, rng)
    cur = pair_coeffs(space, rng)
    cur[:, 0] = prev[:, 1]  # continuous traces at the interface
    u, up = cur.ravel(), prev.ravel()
    energy = (
        u @ (blocks["plus"] @ u)
        + up @ (blocks["minus"] @ up)
        - 2 * u @ (blocks["cross"] @ up)
    )
    assert energy == pytest.approx(0.0, abs=1e-12)


def test_interface_jump_energy_analytic():
    # discontinuity only in u1, constant in space: energy = |jump|^2 / dt
    mesh = build_interval_mesh(0, 1, 2)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    blocks = {name: block.tocsr()
              for name, block in interface_jump_blocks(space).items()}
    prev = np.zeros((2, 2, space.n_x))
    cur = np.zeros((2, 2, space.n_x))
    cur[0, 0] = 1.0
    u, up = cur.ravel(), prev.ravel()
    energy = (
        u @ (blocks["plus"] @ u)
        + up @ (blocks["minus"] @ up)
        - 2 * u @ (blocks["cross"] @ up)
    )
    # constant jump: no gradient part, spatial mass of 1 over [0,1] is 1
    assert energy == pytest.approx(1.0 / space.dt, rel=1e-12)


def test_interface_jump_blocks_symmetric_psd():
    mesh = build_interval_mesh(0, 1, 2)
    space = SlabSpace(mesh, 2, 1, dt=0.25)
    blocks = {name: block.tocsr()
              for name, block in interface_jump_blocks(space).items()}
    for key in ("plus", "minus"):
        M = blocks[key]
        assert abs(M - M.T).max() < 1e-12
        assert np.linalg.eigvalsh(M.toarray()).min() > -1e-12


# -- forward-backward extras ------------------------------------------------


def test_dfb_extras_reject_nonpositive_penalty():
    mesh = build_interval_mesh(0, 1, 4)
    data = mark_data_domain(mesh, [[0, 0.25]])
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    with pytest.raises(ValueError):
        assemble_dfb_extras(space, space, data, lam=0.0)


def test_dfb_coupling_cancels_for_continuous(rng):
    mesh = build_interval_mesh(0, 1, 4)
    data = mark_data_domain(mesh, [[0, 0.25]])
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    extras = {name: block.tocsr() for name, block in assemble_dfb_extras(
        space, space, data, lam=10.0).items()}
    prev = pair_coeffs(space, rng)
    cur = pair_coeffs(space, rng)
    cur[:, 0] = prev[:, 1]
    out = extras["coupling_diag"] @ cur.ravel() - extras["coupling_sub"] @ prev.ravel()
    assert np.linalg.norm(out) == pytest.approx(0.0, abs=1e-12)


def test_dual_interface_mass_values(rng):
    mesh = build_interval_mesh(0, 1, 4)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    E = assemble_dual_interface_mass(space).tocsr()
    # zero incoming trace: no contribution
    Z = pair_coeffs(space, rng)
    Z[:, 0] = 0.0
    assert np.linalg.norm(E @ Z.ravel()) == pytest.approx(0.0, abs=1e-13)
    # constant-in-time unit z1: dt times the spatial mass of 1
    Z = np.zeros((2, 2, space.n_x))
    Z[0] = 1.0
    assert Z.ravel() @ (E @ Z.ravel()) == pytest.approx(space.dt, rel=1e-12)


# -- quadrature robustness --------------------------------------------------


def test_quadrature_order_independence():
    # every derivative pair the assemblers use, between bases of unequal
    # orders, is integrated exactly by the default rule: it agrees with a
    # rule two points higher
    mesh = build_interval_mesh(0, 1, 3)
    primal = SlabSpace(mesh, 2, 2, dt=0.25)
    dual = SlabSpace(mesh, 1, 1, dt=0.25)
    rule = gauss_rule(max(primal.degree_x, primal.degree_t) + 4)

    def reference(test, trial, a, b):
        """Integral over [0, 1] of the a-th and b-th derivatives."""
        return np.einsum("q,qi,qj->ij", rule.weights,
                         test.eval(rule.points, a), trial.eval(rule.points, b))

    for test, trial in ((dual, primal), (primal, dual)):
        dofs = list(zip(element_dofs(mesh, test.degree_x),
                        element_dofs(mesh, trial.degree_x)))
        for a, b in ((0, 0), (1, 1), (2, 2), (0, 2), (2, 0)):
            S = spatial_matrix(mesh, test.xbasis, trial.xbasis, a, b).tocsr()
            local = (reference(test.xbasis, trial.xbasis, a, b)
                     * mesh.h ** (1 - a - b))
            S_ref = np.zeros(S.shape)
            for rows, cols in dofs:
                S_ref[np.ix_(rows, cols)] += local
            assert np.abs(S.toarray() - S_ref).max() < 1e-12, (a, b)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            T = temporal_matrix(test.tbasis, trial.tbasis, a, b, test.dt)
            T_ref = (reference(test.tbasis, trial.tbasis, a, b)
                     * test.dt ** (1 - a - b))
            assert np.abs(T - T_ref).max() < 1e-12, (a, b)


# -- point-evaluation forms against the builders they replaced --------------
#
# Test-local copies of the per-element and per-vertex lil_matrix builders
# that the point-evaluation builders replaced.


def lil_boundary_penalty(mesh, test, trial):
    n_row = test.degree * mesh.n_elems + 1
    n_col = trial.degree * mesh.n_elems + 1
    out = sp.lil_matrix((n_row, n_col))
    for (elem, ref) in ((0, 0.0), (mesh.n_elems - 1, 1.0)):
        vt = test.eval(np.array(ref))
        vr = trial.eval(np.array(ref))
        ri = elem * test.degree + np.arange(test.cardinality)
        ci = elem * trial.degree + np.arange(trial.cardinality)
        out[np.ix_(ri, ci)] += np.outer(vt, vr)
    return out.tocsr()


def lil_boundary_flux(mesh, test, trial):
    n_row = test.degree * mesh.n_elems + 1
    n_col = trial.degree * mesh.n_elems + 1
    out = sp.lil_matrix((n_row, n_col))
    for (elem, ref, normal) in ((0, 0.0, -1.0), (mesh.n_elems - 1, 1.0, 1.0)):
        vt = test.eval(np.array(ref))
        dr = trial.eval(np.array(ref), deriv=1) / mesh.h
        ri = elem * test.degree + np.arange(test.cardinality)
        ci = elem * trial.degree + np.arange(trial.cardinality)
        out[np.ix_(ri, ci)] += normal * np.outer(vt, dr)
    return out.tocsr()


def lil_gradient_jump(mesh, basis):
    k = basis.degree
    n = k * mesh.n_elems + 1
    d_left = basis.eval(np.array(1.0), deriv=1) / mesh.h
    d_right = basis.eval(np.array(0.0), deriv=1) / mesh.h
    out = sp.lil_matrix((n, n))
    for v in mesh.interior_facets:
        e_left, e_right = v - 1, v
        idx = np.concatenate(
            (e_left * k + np.arange(k + 1), e_right * k + np.arange(k + 1))
        )
        jump = np.concatenate((d_left, -d_right))
        g = np.zeros(n)
        np.add.at(g, idx, jump)
        nz = np.nonzero(g)[0]
        out[np.ix_(nz, nz)] += mesh.h * np.outer(g[nz], g[nz])
    return out.tocsr()


def lil_spatial_embedding(mesh, fine, coarse):
    kf, kc = fine.degree, coarse.degree
    n_f = kf * mesh.n_elems + 1
    n_c = kc * mesh.n_elems + 1
    E = sp.lil_matrix((n_f, n_c))
    vals = coarse.eval(fine.nodes)
    for e in range(mesh.n_elems):
        rows = e * kf + np.arange(kf + 1)
        cols = e * kc + np.arange(kc + 1)
        E[np.ix_(rows, cols)] = vals
    return E.tocsr()


def point_forms(mesh):
    """(name, rebuilt, frozen) for every point-evaluation form and degree
    pair up to 3 on mesh."""
    bases = [SpatialBasis(k) for k in (1, 2, 3)]
    for a in bases:
        yield (f"J{a.degree}", gradient_jump_matrix(mesh, a).tocsr(),
               lil_gradient_jump(mesh, a))
        for b in bases:
            tag = f"{a.degree}{b.degree}"
            yield (f"P{tag}", boundary_penalty_matrix(mesh, a, b).tocsr(),
                   lil_boundary_penalty(mesh, a, b))
            yield (f"F{tag}", boundary_flux_matrix(mesh, a, b).tocsr(),
                   lil_boundary_flux(mesh, a, b))
            if b.degree <= a.degree:
                yield (f"E{tag}", _spatial_embedding(mesh, a, b).tocsr(),
                       lil_spatial_embedding(mesh, a, b))


@pytest.mark.parametrize("n_elems", [1, 2, 5, 8, 7, 13])
def test_point_forms_equal_frozen_lil_builders(n_elems):
    # one element puts both domain endpoints in the same element.  h G^T G
    # rounds once where the frozen builder rounds h g g^T at every vertex:
    # the two agree bit for bit on 1, 2, 5 and 8 elements, and differ in the
    # last bit at k = 3 on 7 and 13 elements
    mesh = build_interval_mesh(0, 1, n_elems)
    for name, rebuilt, frozen in point_forms(mesh):
        new, old = rebuilt.toarray(), frozen.toarray()
        if n_elems not in (7, 13):
            assert np.array_equal(new, old), name
        else:
            assert np.abs(new - old).max() <= 1e-15 * np.abs(old).max(), name


def assert_canonical(name, matrix):
    """Sorted, duplicate-free CSR with no explicit zero: the stored pattern
    fixes SpMV summation order and the slab LUs' bandwidths."""
    assert sp.issparse(matrix) and matrix.format == "csr", name
    assert matrix.has_canonical_format, name
    assert np.all(matrix.data != 0), name


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocks_are_canonical_without_stored_zeros(k):
    s = make_system(k=k, q=k, kstar=k, qstar=k, n_elems=8, n_slabs=2)
    for name in ("A_pd", "A_pd_T", "Sh", "Sstar", "Momega", "jump_weight",
                 "jump_weight_T"):
        assert_canonical(name, getattr(s, name))
    # A_pd_T is bitwise scipy's transpose of A_pd
    assert same_csr(s.A_pd_T, s.A_pd.T.tocsr())
    for name, block in s.jump.items():
        assert_canonical(f"jump {name}", block)
    # the one matrix a sweep keeps: ml's transposed embedding
    assert_canonical("ml embed_T", build_preconditioner(s, "ml").embed_T)


@pytest.mark.parametrize("n_elems", [1, 2, 5])
def test_point_forms_are_canonical_without_stored_zeros(n_elems):
    for name, rebuilt, _ in point_forms(build_interval_mesh(0, 1, n_elems)):
        assert_canonical(name, rebuilt)


@pytest.mark.parametrize("n_cols", [2**16, 2**16 + 1])
def test_transpose_is_scipys_on_either_side_of_16_bit_columns(n_cols):
    # up to 2**16 columns the transpose sorts 16-bit keys, beyond that the
    # columns themselves; entries at the first and the last columns, some
    # shared between rows, show a key that wrapped or a sort that was not
    # stable
    cols = [0, n_cols - 3, n_cols - 1, 0, n_cols - 2, n_cols - 1,
            1, n_cols - 3, n_cols - 2, n_cols - 1]
    rows = [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
    vals = np.arange(1.0, len(cols) + 1)
    S = sp.csr_matrix((vals, (rows, cols)), shape=(3, n_cols))
    built = Triplets.of(S).transpose().tocsr()
    expected = S.T.tocsr()
    assert built.shape == expected.shape == (n_cols, 3)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(built, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_element_dofs_share_vertices():
    mesh = build_interval_mesh(0, 1, 3)
    dofs = element_dofs(mesh, 2)
    assert dofs.tolist() == [[0, 1, 2], [2, 3, 4], [4, 5, 6]]


@pytest.mark.parametrize("fine,coarse", [(2, 1), (3, 1), (3, 2), (3, 3)])
def test_spatial_embedding_interpolates_coarse_functions(fine, coarse, rng):
    mesh = build_interval_mesh(0, 1, 4)
    E = _spatial_embedding(mesh, SpatialBasis(fine),
                           SpatialBasis(coarse)).tocsr()
    # a continuous piecewise polynomial of the coarse degree, given by its
    # coarse nodal values, has the fine nodal values of the same function
    x_c = np.linspace(0, 1, coarse * mesh.n_elems + 1)
    x_f = np.linspace(0, 1, fine * mesh.n_elems + 1)
    c = rng.standard_normal(coarse + 1)
    assert E @ np.polyval(c, x_c) == pytest.approx(np.polyval(c, x_f),
                                                   abs=1e-12)


# -- the tensor-product block builder against kron, bmat and sparse sums -----


def kron_bmat_block(shape, terms):
    """The block _tensor_block builds, from scipy's kron, sparse sum and
    bmat: each field pair is its one term's scale * kron(T, S), or the
    sparse sum of its terms' in their order, placed with bmat."""
    pairs = {}
    for i, j, scale, T, S in terms:
        block = scale * sp.kron(T, S, format="csr")
        pairs[i, j] = block if (i, j) not in pairs else pairs[i, j] + block
    rows, cols = shape
    return sp.bmat([[pairs.get((i, j), sp.csr_matrix((n, m)))
                     for j, m in enumerate(cols)]
                    for i, n in enumerate(rows)], format="csr")


# values that cancel exactly in sums, and zeros for T and stored zeros of S
ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 0.3, -0.7, 3.0])


def unsorted_rows(S):
    """S with the entries of every row stored in reverse column order."""
    order = np.concatenate([np.arange(stop - 1, start - 1, -1) for start, stop
                            in zip(S.indptr[:-1], S.indptr[1:])]
                           ).astype(np.intp)
    return sp.csr_matrix((S.data[order], S.indices[order], S.indptr),
                         shape=S.shape)


@st.composite
def tensor_terms(draw):
    """A field layout and terms on it: rectangular fields of their own
    temporal and spatial sizes on either side, several terms on one field
    pair, zeros in T, stored zeros in S, unsorted S rows, and scales of
    either sign."""
    sides = []
    for _ in range(2):
        n_fields = draw(st.integers(1, 3))
        sides.append([(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
                      for _ in range(n_fields)])
    rows, cols = sides
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(cols) - 1))
        (t_a, x_a), (t_b, x_b) = rows[i], cols[j]
        T = np.array(draw(st.lists(ENTRIES, min_size=t_a * t_b,
                                   max_size=t_a * t_b))).reshape(t_a, t_b)
        stored = np.array(draw(st.lists(st.booleans(), min_size=x_a * x_b,
                                        max_size=x_a * x_b)))
        r, c = np.divmod(np.flatnonzero(stored), x_b)
        vals = draw(st.lists(ENTRIES, min_size=len(r), max_size=len(r)))
        S = sp.csr_matrix((vals, (r, c)), shape=(x_a, x_b))
        if draw(st.booleans()):
            S = unsorted_rows(S)
        scale = draw(st.sampled_from([1.0, -1.0, 2.5, -0.3, 1.0 / 3.0]))
        terms.append((i, j, scale, T, S))
    shape = tuple([t * x for t, x in side] for side in sides)
    return shape, terms


@given(tensor_terms())
def test_tensor_block_is_bitwise_kron_bmat_and_sparse_sum(case):
    shape, terms = case
    # the builder takes each S as canonical triplets, its stored zeros kept
    built = _tensor_block(shape, [
        (i, j, scale, T, Triplets.of(S.sorted_indices()))
        for i, j, scale, T, S in terms]).tocsr()
    expected = kron_bmat_block(shape, terms)
    assert built.shape == expected.shape
    for matrix in (built, expected):
        matrix.sum_duplicates()
    assert np.array_equal(built.indptr, expected.indptr)
    assert np.array_equal(built.indices, expected.indices)
    # bitwise, so that a sum rounded in another order or a zero of the
    # other sign fails
    assert built.data.tobytes() == expected.data.tobytes()
