import numpy as np
import pytest

from waveuc.config import PRESETS
from waveuc.spacetime_system import DATA_QUADRATURE_POINTS, SpaceTimeSystem

from conftest import make_system


def negate_dual(system, x):
    y = x.copy()
    for n in range(system.n_slabs):
        y[system.dual_slice(n)] *= -1
    return y


def test_layout_covers_all_dofs():
    s = make_system(n_elems=4, n_slabs=3)
    covered = np.zeros(s.ndof, dtype=int)
    for n in range(s.n_slabs):
        covered[s.primal_slice(n)] += 1
        covered[s.dual_slice(n)] += 1
    assert np.all(covered == 1)
    assert s.ndof == s.n_slabs * (s.n_primal + s.n_dual)


def test_apply_zero_and_layout_mismatch():
    s = make_system()
    assert np.all(s.apply(s.zero_vector()) == 0)
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
    for n in range(system.n_slabs):
        mask[system.primal_slice(n)] = True
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
    x = rng.standard_normal(s.ndof)
    y = s.apply_primal_stabilized(x)
    assert np.all(y[~p] == 0)
    yd = D_pp @ x[p]
    assert np.linalg.norm(y[p] - yd) <= 1e-12 * np.linalg.norm(yd)


@pytest.mark.parametrize("k,q,kstar,qstar,n_slabs", BATCH_CASES)
def test_batched_triple_norm_matches_dense_blocks(
        k, q, kstar, qstar, n_slabs, rng):
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=q, kstar=kstar,
                    qstar=qstar)
    p = primal_mask(s)
    D = s.dense_matrix()
    Sh, Mo, Ss = (m.toarray() for m in (s.Sh, s.Momega, s.Sstar))
    x = rng.standard_normal(s.ndof)
    sh2 = om2 = ds2 = 0.0
    for n in range(s.n_slabs):
        xp, xd = x[s.primal_slice(n)], x[s.dual_slice(n)]
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
    space = s.primal
    for n in range(s.n_slabs):
        x[s.dual_slice(n)] = 0.0
    for n in range(1, s.n_slabs):
        prev = x[s.primal_slice(n - 1)].reshape(2, space.n_modes, space.n_x)
        cur = x[s.primal_slice(n)].reshape(2, space.n_modes, space.n_x)
        cur[:, 0] = prev[:, -1]
        x[s.primal_slice(n)] = cur.ravel()
    y = s.apply(x)
    # against the uncoupled block action
    expected = np.zeros_like(x)
    for n in range(s.n_slabs):
        ps = s.primal_slice(n)
        xp = x[ps]
        expected[ps] = s.Momega @ xp + s.Sh @ xp
        expected[s.dual_slice(n)] = s.A_pd @ xp
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
    report = s.triple_norm(s.zero_vector())
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
    space = s.primal
    for n in range(s.n_slabs):
        block = b[s.primal_slice(n)].reshape(2, space.n_modes, space.n_x)
        # each temporal hat integrates to dt/2; hats integrate to h (h/2 at
        # the boundary)
        spatial = np.full(space.n_x, h)
        spatial[[0, -1]] = h / 2
        assert np.allclose(block[0], dt / 2 * spatial, atol=1e-12)
        assert np.all(block[1] == 0)
        assert np.all(b[s.dual_slice(n)] == 0)


def test_rhs_supported_on_masked_elements():
    s = make_system(n_elems=4, n_slabs=2)  # data on [0, 1/4] and [3/4, 1]
    b = s.assemble_rhs(lambda t, x: np.ones_like(x))
    space = s.primal
    for n in range(s.n_slabs):
        block = b[s.primal_slice(n)].reshape(2, space.n_modes, space.n_x)
        # nodes x = 0.5 (index 2) see no data element
        assert np.all(block[0][:, 2] == 0)
        assert np.any(block[0][:, 0] != 0)


def loop_data_functional(system, space, u_omega):
    """Reference for the batched right-hand side: slab by slab, time point
    by time point and element by element quadrature of (u_omega, first
    test field of space) over the marked elements."""
    xg, wg = np.polynomial.legendre.leggauss(DATA_QUADRATURE_POINTS)
    pts, wts = (xg + 1) / 2, wg / 2
    mesh, dt, k = system.mesh, system.config.dt, space.degree_x
    out = np.zeros((system.n_slabs, space.n_modes, space.n_x))
    for n in range(system.n_slabs):
        for tq, wt in zip(pts, wts):
            tau = (n + tq) * dt
            psi = space.tbasis.eval(np.array(tq))
            for e in np.flatnonzero(system.data.element_mask):
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
        block = b[s.primal_slice(n)]
        assert np.allclose(block[: space.n_field], ref[n].ravel(),
                           rtol=0, atol=1e-14 * np.abs(ref).max())
        assert np.all(block[space.n_field :] == 0)
