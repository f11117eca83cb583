import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from waveuc import slab_forms
from waveuc.basis import gauss_rule
from waveuc.config import PRESETS
from waveuc.precond import build_preconditioner
from waveuc.spacetime_system import (
    DATA_QUADRATURE_POINTS,
    DENSE_DOF_LIMIT,
    SpaceTimeSystem,
)

from conftest import make_system


def negate_dual(system, x):
    y = x.copy()
    system.slab_view(y)[:, system.n_primal :] *= -1
    return y


@pytest.mark.parametrize("k", [1, 2])
def test_each_factor_is_built_once(k, monkeypatch):
    # the 6 distinct spatial factors (M, K, the three second-derivative
    # pairs, the data mass) and the 4 distinct temporal ones (derivative
    # pairs 0/0, 0/1, 1/0, 1/1) are each built once per system, and dfb
    # reuses the system's spatial factors; spatial_matrix builds the
    # spatial ones
    calls = {}
    for name in ("spatial_matrix", "temporal_matrix"):
        def counted(*args, _build=getattr(slab_forms, name), _name=name,
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(slab_forms, name, counted)
    s = make_system(k=k, q=k, kstar=k, qstar=k, n_elems=8, n_slabs=3)
    assert calls == {"spatial_matrix": 6, "temporal_matrix": 4}
    build_preconditioner(s, "dfb")
    assert calls["spatial_matrix"] == 6


def test_layout_covers_all_dofs():
    s = make_system(n_elems=4, n_slabs=3)
    covered = np.zeros(s.ndof, dtype=int)
    C = s.slab_view(covered)
    C[:, : s.n_primal] += 1
    C[:, s.n_primal :] += 1
    assert np.all(covered == 1)
    assert s.ndof == s.n_slabs * (s.n_primal + s.n_dual)


def test_apply_zero_and_layout_mismatch():
    s = make_system()
    assert np.all(s.apply(np.zeros(s.ndof)) == 0)
    with pytest.raises(ValueError):
        s.apply(np.zeros(s.ndof + 1))


def test_apply_linearity(rng):
    s = make_system(n_elems=8, n_slabs=3)
    x = rng.standard_normal(s.ndof)
    y = rng.standard_normal(s.ndof)
    a, b = 0.7, -1.3
    lhs = s.apply(a * x + b * y)
    rhs = a * s.apply(x) + b * s.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_dense_oracle_equivalence(rng):
    s = make_system(n_elems=4, n_slabs=2)
    D = s.dense_matrix()
    for _ in range(20):
        x = rng.standard_normal(s.ndof)
        y = s.apply(x)
        yd = D @ x
        assert np.linalg.norm(y - yd) <= 1e-12 * np.linalg.norm(yd)


# (k, q, kstar, qstar, N): no interface, several interfaces, higher
# degrees and dual orders below and above the primal ones
BATCH_CASES = [
    (1, 1, 1, 1, 1),
    (1, 1, 1, 1, 3),
    (2, 2, 2, 2, 2),
    (1, 1, 1, 0, 3),
    (2, 1, 1, 2, 2),
]


def primal_mask(system):
    mask = np.zeros(system.ndof, dtype=bool)
    system.slab_view(mask)[:, : system.n_primal] = True
    return mask


@pytest.mark.parametrize("k,q,kstar,qstar,n_slabs", BATCH_CASES)
def test_batched_apply_matches_dense_oracle(k, q, kstar, qstar, n_slabs, rng):
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=q, kstar=kstar,
                    qstar=qstar)
    D = s.dense_matrix()
    for _ in range(5):
        x = rng.standard_normal(s.ndof)
        yd = D @ x
        assert np.linalg.norm(s.apply(x) - yd) <= 1e-12 * np.linalg.norm(yd)


@pytest.mark.parametrize("k,q,kstar,qstar,n_slabs", BATCH_CASES)
def test_batched_primal_stabilized_matches_dense_blocks(
        k, q, kstar, qstar, n_slabs, rng):
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=q, kstar=kstar,
                    qstar=qstar)
    p = primal_mask(s)
    D_pp = s.dense_matrix()[np.ix_(p, p)]
    # the primal-test rows of A on a vector whose dual part is zero
    x = np.where(p, rng.standard_normal(s.ndof), 0.0)
    y = s.apply(x)
    yd = D_pp @ x[p]
    assert np.linalg.norm(y[p] - yd) <= 1e-12 * np.linalg.norm(yd)


@pytest.mark.parametrize("k,q,kstar,qstar,n_slabs", BATCH_CASES)
def test_primal_rows_match_dense_oracle(k, q, kstar, qstar, n_slabs, rng):
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=q, kstar=kstar,
                    qstar=qstar)
    p = primal_mask(s)
    D = s.dense_matrix()
    x = rng.standard_normal(s.ndof)
    X = s.slab_view(x)
    U, Z = X[:, : s.n_primal].T, X[:, s.n_primal :].T
    # one column per slab, so the transpose ravels slab-major like the mask
    yd = (D @ x)[p]
    y = s.primal_rows(U, Z).T.ravel()
    assert np.linalg.norm(y - yd) <= 1e-12 * np.linalg.norm(yd)
    # Z=None: the primal-test rows of x with its dual part zeroed
    yd = D[p][:, p] @ x[p]
    y = s.primal_rows(U).T.ravel()
    assert np.linalg.norm(y - yd) <= 1e-12 * np.linalg.norm(yd)


@pytest.mark.parametrize("k,q,kstar,qstar,n_slabs", BATCH_CASES)
def test_batched_triple_norm_matches_dense_blocks(
        k, q, kstar, qstar, n_slabs, rng):
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=q, kstar=kstar,
                    qstar=qstar)
    p = primal_mask(s)
    D = s.dense_matrix()
    Sh, Mo, Ss = (m.toarray() for m in (s.Sh, s.Momega, s.Sstar))
    x = rng.standard_normal(s.ndof)
    X = s.slab_view(x)
    sh2 = om2 = ds2 = 0.0
    for n in range(s.n_slabs):
        xp, xd = X[n, : s.n_primal], X[n, s.n_primal :]
        sh2 += xp @ Sh @ xp
        om2 += xp @ Mo @ xp
        ds2 += xd @ Ss @ xd
    # the primal-primal dense block is measurement mass + stabilizers +
    # interface jumps, the dual-dual one minus the dual stabilizer
    jm2 = x[p] @ D[np.ix_(p, p)] @ x[p] - sh2 - om2
    D_dd = D[np.ix_(~p, ~p)]
    assert -(x[~p] @ D_dd @ x[~p]) == pytest.approx(ds2, rel=1e-12)
    report = s.triple_norm(x)
    assert report.sh**2 == pytest.approx(sh2, rel=1e-10)
    assert report.omega**2 == pytest.approx(om2, rel=1e-10)
    assert report.sstar**2 == pytest.approx(ds2, rel=1e-10)
    # jm2 comes from a difference: allow for its cancellation
    assert report.jump**2 == pytest.approx(jm2, rel=1e-10,
                                           abs=1e-12 * (sh2 + om2))
    if n_slabs == 1:
        assert report.jump == 0.0
    assert report.total**2 == pytest.approx(sh2 + om2 + ds2 + jm2, rel=1e-10)


def test_dense_assembly_size_guard():
    s = make_system(n_elems=64, n_slabs=32)
    assert s.ndof > 5000
    with pytest.raises(ValueError, match="dense"):
        s.dense_matrix()


def test_global_matrix_matches_apply_above_the_dense_guard(rng):
    # gcc1d k=2 N=48 with h=dt: 111,168 dofs
    s = make_system(k=2, q=2, kstar=2, qstar=2, n_elems=96, n_slabs=48)
    assert s.ndof > DENSE_DOF_LIMIT
    G = s.global_matrix()
    assert G.shape == (s.ndof, s.ndof)
    x = rng.standard_normal(s.ndof)
    y = s.apply(x)
    assert np.linalg.norm(G @ x - y) <= 1e-12 * np.linalg.norm(y)


def test_sparse_direct_solve_above_the_dense_guard():
    # gcc1d k=2 N=12 with h=dt: 7,056 dofs; SuperLU with its default
    # (COLAMD) ordering, then one refinement step against apply
    s = make_system(k=2, q=2, kstar=2, qstar=2, n_elems=24, n_slabs=12)
    assert s.ndof > DENSE_DOF_LIMIT
    b = s.assemble_rhs(PRESETS["gcc1d"].u)
    lu = splu(s.global_matrix().tocsc())
    x = lu.solve(b)
    x += lu.solve(b - s.apply(x))
    assert np.linalg.norm(b - s.apply(x)) <= 1e-10 * np.linalg.norm(b)


def test_global_matrix_of_one_slab_is_the_slab_block():
    s = make_system(k=2, q=2, kstar=2, qstar=1, n_slabs=1)
    blk = np.block(
        [[(s.Sh + s.Momega).toarray(), s.A_pd.T.toarray()],
         [s.A_pd.toarray(), -s.Sstar.toarray()]]
    )
    assert np.array_equal(s.global_matrix().toarray(), blk)


def test_jump_subblock_symmetric():
    s = make_system(n_elems=4, n_slabs=3)
    D = s.dense_matrix()
    # isolate the interface terms by subtracting the uncoupled slab blocks
    blk = np.block(
        [[(s.Sh + s.Momega).toarray(), s.A_pd.T.toarray()],
         [s.A_pd.toarray(), -s.Sstar.toarray()]]
    )
    for n in range(s.n_slabs):
        sl = slice(n * s.slab_size, (n + 1) * s.slab_size)
        D[sl, sl] -= blk
    assert np.allclose(D, D.T, atol=1e-12)
    assert np.any(D != 0)


def test_time_continuous_primal_has_no_jump_contribution(rng):
    s = make_system(n_elems=4, n_slabs=3)
    x = rng.standard_normal(s.ndof)
    # make the primal traces match across interfaces and zero the dual part
    space, X = s.primal, s.slab_view(x)
    X[:, s.n_primal :] = 0.0
    # each slab's primal part, as a view of x, by field and temporal mode
    fields = X[:, : s.n_primal].reshape(s.n_slabs, 2, space.n_modes,
                                        space.n_x)
    for n in range(1, s.n_slabs):
        fields[n, :, 0] = fields[n - 1, :, -1]
    y = s.apply(x)
    # against the uncoupled block action
    expected = np.zeros_like(x)
    E = s.slab_view(expected)
    for n in range(s.n_slabs):
        xp = X[n, : s.n_primal]
        E[n, : s.n_primal] = s.Momega @ xp + s.Sh @ xp
        E[n, s.n_primal :] = s.A_pd @ xp
    assert np.linalg.norm(y - expected) <= 1e-11 * np.linalg.norm(expected)
    assert s.triple_norm(x).jump == pytest.approx(0.0, abs=1e-10)


def test_slab_locality(rng):
    s = make_system(n_elems=4, n_slabs=5)
    x = rng.standard_normal(s.ndof)
    j = 2
    dx = np.zeros(s.ndof)
    sl = slice(j * s.slab_size, (j + 1) * s.slab_size)
    dx[sl] = rng.standard_normal(s.slab_size)
    dy = s.apply(x + dx) - s.apply(x)
    for n in range(s.n_slabs):
        block = dy[n * s.slab_size : (n + 1) * s.slab_size]
        if abs(n - j) <= 1:
            continue
        assert np.linalg.norm(block) == pytest.approx(0.0, abs=1e-12)


def test_norm_identity(rng):
    s = make_system(n_elems=4, n_slabs=3)
    for _ in range(5):
        x = rng.standard_normal(s.ndof)
        lhs = s.apply(negate_dual(s, x)) @ x
        report = s.triple_norm(x)
        assert lhs == pytest.approx(report.total**2, rel=1e-10)
        assert report.total**2 == pytest.approx(
            report.sh**2 + report.omega**2 + report.sstar**2 + report.jump**2,
            rel=1e-12,
        )


def test_triple_norm_zero():
    s = make_system()
    report = s.triple_norm(np.zeros(s.ndof))
    assert (report.sh, report.omega, report.sstar, report.jump, report.total) == (
        0, 0, 0, 0, 0,
    )


def test_rhs_zero_data():
    s = make_system()
    b = s.assemble_rhs(lambda t, x: np.zeros_like(x))
    assert np.all(b == 0)


def test_rhs_constant_data_full_domain():
    preset = PRESETS["gcc1d"]
    cfg = preset.make_config(
        n_elems=4, n_slabs=2, omega=((0.0, 1.0),), k=1, q=1, kstar=1, qstar=1
    )
    s = SpaceTimeSystem(cfg)
    b = s.assemble_rhs(lambda t, x: np.ones_like(x))
    dt, h = cfg.dt, cfg.h
    space, B = s.primal, s.slab_view(b)
    for n in range(s.n_slabs):
        block = B[n, : s.n_primal].reshape(2, space.n_modes, space.n_x)
        # each temporal hat integrates to dt/2; hats integrate to h (h/2 at
        # the boundary)
        spatial = np.full(space.n_x, h)
        spatial[[0, -1]] = h / 2
        assert np.allclose(block[0], dt / 2 * spatial, atol=1e-12)
        assert np.all(block[1] == 0)
        assert np.all(B[n, s.n_primal :] == 0)


def test_rhs_supported_on_masked_elements():
    s = make_system(n_elems=4, n_slabs=2)  # data on [0, 1/4] and [3/4, 1]
    b = s.assemble_rhs(lambda t, x: np.ones_like(x))
    space = s.primal
    for n in range(s.n_slabs):
        block = s.slab_view(b)[n, : s.n_primal].reshape(2, space.n_modes,
                                                        space.n_x)
        # nodes x = 0.5 (index 2) see no data element
        assert np.all(block[0][:, 2] == 0)
        assert np.any(block[0][:, 0] != 0)


def loop_data_functional(system, space, u_omega,
                         points=DATA_QUADRATURE_POINTS):
    """Reference for the batched right-hand side: slab by slab, time point
    by time point and element by element quadrature of (u_omega, first
    test field of space) over the marked elements, with the Gauss rule of
    the given number of points in time and in space."""
    xg, wg = np.polynomial.legendre.leggauss(points)
    pts, wts = (xg + 1) / 2, wg / 2
    mesh, dt, k = system.mesh, system.config.dt, space.degree_x
    out = np.zeros((system.n_slabs, space.n_modes, space.n_x))
    for n in range(system.n_slabs):
        for tq, wt in zip(pts, wts):
            tau = (n + tq) * dt
            psi = space.tbasis.eval(np.array(tq))
            for e in np.flatnonzero(system.data):
                for xq, wx in zip(pts, wts):
                    x = mesh.vertices[e] + mesh.h * xq
                    phi = space.xbasis.eval(np.array(xq))
                    val = u_omega(tau, np.array([x]))[0]
                    out[n][:, e * k : e * k + k + 1] += (
                        dt * wt * mesh.h * wx * val * np.outer(psi, phi))
    return out


@pytest.mark.parametrize("preset,k,q,kstar,qstar", [
    ("gcc1d", 2, 2, 2, 2),
    ("nogcc1d", 1, 1, 1, 0),
    ("gcc1d", 2, 1, 1, 2),
])
def test_rhs_matches_loop_reference(preset, k, q, kstar, qstar):
    s = make_system(preset=preset, n_elems=8, n_slabs=3, k=k, q=q,
                    kstar=kstar, qstar=qstar)
    u = PRESETS[preset].u
    b, space = s.assemble_rhs(u), s.primal
    ref = loop_data_functional(s, space, u)
    for n in range(s.n_slabs):
        block = s.slab_view(b)[n, : s.n_primal]
        assert np.allclose(block[: space.n_field], ref[n].ravel(),
                           rtol=0, atol=1e-14 * np.abs(ref).max())
        assert np.all(block[space.n_field :] == 0)


@pytest.mark.parametrize("preset,k,n_slabs", [("gcc1d", 2, 4),
                                               ("nogcc1d", 3, 2)])
def test_rhs_matches_a_20_point_rule(preset, k, n_slabs):
    # the data is no polynomial, so this pins how many points the right-hand
    # side's rule takes: 6 points give 4e-15 and 2e-12 here, 4 points 1e-9
    # and 4e-6
    s = make_system(preset=preset, n_elems=2 * n_slabs, n_slabs=n_slabs,
                    k=k, q=k, kstar=k, qstar=k)
    u = PRESETS[preset].u
    ref = loop_data_functional(s, s.primal, u, points=20)
    b = s.slab_view(s.assemble_rhs(u))[:, : s.primal.n_field]
    err = np.abs(b - ref.reshape(n_slabs, -1)).max()
    assert err <= 1e-11 * np.abs(ref).max()


def per_time_rhs(system, u_omega):
    """The right-hand side with u_omega called once per quadrature time, on
    the points of the marked elements, and the rest of assemble_rhs's
    arithmetic in its order."""
    rule = gauss_rule(DATA_QUADRATURE_POINTS)
    N, dt, h = system.n_slabs, system.config.dt, system.mesh.h
    space = system.primal
    elems = np.flatnonzero(system.data)
    xq = system.mesh.vertices[elems, None] + h * rule.points
    taus = (np.arange(N) * dt)[:, None] + dt * rule.points
    f = np.array([np.broadcast_to(u_omega(tau, xq), xq.shape)
                  for tau in taus.ravel()])
    local = (rule.weights * h * f) @ space.xbasis.eval(rule.points)
    loads = np.zeros((f.shape[0], space.n_x))
    dofs = slab_forms.element_dofs(system.mesh, space.degree_x)[elems]
    np.add.at(loads, (slice(None), dofs), local)
    loads = loads.reshape(N, rule.n_points, space.n_x)
    psi = space.tbasis.eval(rule.points)
    blocks = np.einsum("q,qm,nqj->nmj", dt * rule.weights, psi, loads)
    b = np.zeros(system.ndof)
    system.slab_view(b)[:, : space.n_field] = blocks.reshape(N, space.n_field)
    return b


@pytest.mark.parametrize("preset,k,n_slabs", [
    ("gcc1d", 1, 1), ("gcc1d", 2, 3), ("nogcc1d", 1, 4), ("nogcc1d", 3, 2),
])
def test_rhs_calls_the_data_once_and_equals_per_time_evaluation(
        preset, k, n_slabs):
    # the benchmark's error gate at gcc1d k = 2 N = 24 rests on these bits
    s = make_system(preset=preset, n_elems=4 * n_slabs, n_slabs=n_slabs,
                    k=k, q=k, kstar=k, qstar=k)
    u = PRESETS[preset].u
    calls = []

    def counted(t, x):
        calls.append(np.shape(t))
        return u(t, x)

    b = s.assemble_rhs(counted)
    assert len(calls) == 1
    assert b.tobytes() == per_time_rhs(s, u).tobytes()


# -- properties over random orders, meshes and measurement regions -----------


@st.composite
def random_systems(draw):
    """A valid system within the dense oracle's limit, with one or two data
    intervals whose endpoints lie on mesh vertices, and a random vector."""
    n_elems = draw(st.integers(1, 10))
    n_slabs = draw(st.integers(1, 5))
    omega = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.integers(0, n_elems - 1))
        hi = draw(st.integers(lo + 1, n_elems))
        omega.append((lo / n_elems, hi / n_elems))
    s = make_system(k=draw(st.integers(1, 3)), q=draw(st.integers(1, 3)),
                    kstar=draw(st.integers(1, 3)),
                    qstar=draw(st.integers(0, 3)), n_elems=n_elems,
                    n_slabs=n_slabs, omega=tuple(omega))
    assert s.ndof <= DENSE_DOF_LIMIT
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return s, rng.standard_normal(s.ndof)


@settings(max_examples=40)
@given(random_systems())
def test_property_apply_matches_dense_oracle(case):
    s, x = case
    yd = s.dense_matrix() @ x
    assert np.linalg.norm(s.apply(x) - yd) <= 1e-12 * np.linalg.norm(yd)


@settings(max_examples=40)
@given(random_systems())
def test_property_norm_identity(case):
    s, x = case
    lhs = s.apply(negate_dual(s, x)) @ x
    assert lhs == pytest.approx(s.triple_norm(x).total**2, rel=1e-10)


@st.composite
def trace_systems(draw):
    """A system of either preset with primal orders k, q in 1..3, k* <= k,
    1, 2, 3 or 5 slabs, and a random vector."""
    k = draw(st.integers(1, 3))
    s = make_system(draw(st.sampled_from(sorted(PRESETS))), k=k,
                    q=draw(st.integers(1, 3)), kstar=draw(st.integers(1, k)),
                    qstar=draw(st.integers(0, 3)), n_elems=4,
                    n_slabs=draw(st.sampled_from([1, 2, 3, 5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return s, rng.standard_normal(s.ndof)


@settings(max_examples=40)
@given(trace_systems())
def test_property_trace_jumps_is_the_jump_action_on_full_columns(case):
    s, x = case
    U = s.slab_view(x)[:, : s.n_primal].T
    P, Mm, C = (s.jump[key] for key in ("plus", "minus", "cross"))
    # column n is slab n, so the later slab of each interface is [:, 1:]
    ref = np.zeros(U.shape)
    ref[:, 1:] += P @ U[:, 1:] - C @ U[:, :-1]
    ref[:, :-1] += Mm @ U[:, :-1] - C.T @ U[:, 1:]
    Y = np.zeros(U.shape)
    Y[s.trace] = s.trace_jumps(U[s.trace])
    assert np.linalg.norm(Y - ref) <= 1e-14 * np.linalg.norm(ref)
    # apply scatters with Yp[trace] +=, which needs distinct trace rows and
    # misses nothing only if every block vanishes off the trace rows and
    # columns
    assert len(np.unique(s.trace)) == len(s.trace)
    off = np.ones(s.n_primal, dtype=bool)
    off[s.trace] = False
    for block in s.jump.values():
        dense = block.toarray()
        assert not dense[off].any() and not dense[:, off].any()
