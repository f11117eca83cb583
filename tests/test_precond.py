import numpy as np
import pytest

from waveuc.precond import (
    BlockJacobi,
    ForwardBackwardSplit,
    IdentityPreconditioner,
    MonolithicForward,
    build_preconditioner,
)

from conftest import make_system


def dense_relaxed_matrix(system):
    """Dense matrix of the system with the interface jumps relaxed to their
    upstream-tested half (oracle for the forward sweep)."""
    D = system.dense_matrix()
    Mm = system.jump["minus"].toarray()
    C = system.jump["cross"].toarray()
    for n in range(1, system.n_slabs):
        pp, pc = system.primal_slice(n), system.primal_slice(n - 1)
        D[pc, pc] -= Mm
        D[pc, pp] += C.T
    return D


def test_identity_preconditioner(rng):
    s = make_system()
    r = rng.standard_normal(s.ndof)
    assert np.array_equal(IdentityPreconditioner().apply(r), r)


def test_zero_maps_to_zero():
    s = make_system(n_elems=4, n_slabs=2)
    for kind in ("none", "block", "mf", "ml", "dfb"):
        M = build_preconditioner(s, kind)
        assert np.all(M.apply(s.zero_vector()) == 0)


def test_forward_sweep_matches_dense_relaxed_solve(rng):
    for n_slabs in (2, 3):
        s = make_system(n_elems=4, n_slabs=n_slabs)
        M = MonolithicForward(s)
        r = rng.standard_normal(s.ndof)
        x = M.apply(r)
        xd = np.linalg.solve(dense_relaxed_matrix(s), r)
        assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)


def test_relaxed_system_is_block_lower_triangular():
    s = make_system(n_elems=4, n_slabs=3)
    D = dense_relaxed_matrix(s)
    for i in range(s.n_slabs):
        for j in range(i + 1, s.n_slabs):
            block = D[
                i * s.slab_size : (i + 1) * s.slab_size,
                j * s.slab_size : (j + 1) * s.slab_size,
            ]
            assert np.all(block == 0)


def test_single_slab_sweep_is_exact_solve(rng):
    s = make_system(n_elems=4, n_slabs=1)
    M = MonolithicForward(s)
    r = rng.standard_normal(s.ndof)
    x = M.apply(r)
    assert np.linalg.norm(s.apply(x) - r) <= 1e-10 * np.linalg.norm(r)


def test_block_jacobi_matches_dense_block_solve(rng):
    s = make_system(n_elems=4, n_slabs=2)
    M = BlockJacobi(s)
    r = rng.standard_normal(s.ndof)
    x = M.apply(r)
    # dense oracle: block-diagonal matrix without any interface terms
    blk = np.block(
        [[(s.Sh + s.Momega).toarray(), s.A_pd.T.toarray()],
         [s.A_pd.toarray(), -s.Sstar.toarray()]]
    )
    for n in range(s.n_slabs):
        sl = slice(n * s.slab_size, (n + 1) * s.slab_size)
        xd = np.linalg.solve(blk, r[sl])
        assert np.linalg.norm(x[sl] - xd) <= 1e-10 * np.linalg.norm(xd)


def test_block_jacobi_preserves_slab_support(rng):
    s = make_system(n_elems=4, n_slabs=3)
    M = BlockJacobi(s)
    r = np.zeros(s.ndof)
    sl = slice(1 * s.slab_size, 2 * s.slab_size)
    r[sl] = rng.standard_normal(s.slab_size)
    x = M.apply(r)
    mask = np.ones(s.ndof, dtype=bool)
    mask[sl] = False
    assert np.all(x[mask] == 0)


def test_reduced_dual_sweep_is_invertible_linear(rng):
    s = make_system(n_elems=4, n_slabs=3)
    M = MonolithicForward(s, dual_orders=(1, 0))
    x = rng.standard_normal(s.ndof)
    y = rng.standard_normal(s.ndof)
    lhs = M.apply(0.3 * x - 1.7 * y)
    rhs = 0.3 * M.apply(x) - 1.7 * M.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)
    # injective on a random sample: distinct inputs stay distinct
    assert np.linalg.norm(M.apply(x) - M.apply(y)) > 1e-8


def test_reduced_dual_sweep_equals_full_when_orders_match(rng):
    s = make_system(n_elems=4, n_slabs=2, k=1, q=1, kstar=1, qstar=0)
    M_full = MonolithicForward(s)
    M_red = MonolithicForward(s, dual_orders=(1, 0))
    r = rng.standard_normal(s.ndof)
    a, b = M_full.apply(r), M_red.apply(r)
    assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(a)


@pytest.mark.parametrize("n_slabs", [1, 3])
def test_reduced_dual_sweep_solves_dual_rows(n_slabs, rng):
    # the dual output is recovered from the slab-local dual-test rows, so
    # those rows of the system hold exactly on every slab
    s = make_system(n_elems=4, n_slabs=n_slabs, k=2, q=2, kstar=2, qstar=2)
    M = MonolithicForward(s, dual_orders=(1, 0))
    r = rng.standard_normal(s.ndof)
    y = s.apply(M.apply(r))
    for n in range(s.n_slabs):
        d = s.dual_slice(n)
        assert np.linalg.norm(y[d] - r[d]) <= 1e-10 * np.linalg.norm(r[d])


def test_reduced_dual_orders_must_embed():
    s = make_system(n_elems=4, n_slabs=2)
    with pytest.raises(ValueError):
        MonolithicForward(s, dual_orders=(2, 0))


def dense_dfb_forward_matrix(system, lam):
    """Dense slab-triangular matrix of the enriched forward operator."""
    from waveuc.slab_forms import assemble_dfb_extras

    extras = assemble_dfb_extras(system.primal, system.dual, system.data, lam)
    G0 = (system.A_pd + extras["observer"] + extras["nitsche"]).toarray()
    Gd = G0 + extras["coupling_diag"].toarray()
    Gs = extras["coupling_sub"].toarray()
    N, m = system.n_slabs, system.n_primal
    D = np.zeros((N * m, N * m))
    for n in range(N):
        D[n * m : (n + 1) * m, n * m : (n + 1) * m] = G0 if n == 0 else Gd
        if n >= 1:
            D[n * m : (n + 1) * m, (n - 1) * m : n * m] = -Gs
    return D


@pytest.mark.parametrize("n_slabs", [1, 2, 3])
def test_dfb_sweeps_match_dense_triangular_solves(n_slabs, rng):
    # three slabs give a middle slab that both sweeps couple on both sides
    s = make_system(n_elems=4, n_slabs=n_slabs)
    lam = s.config.resolved_lambda()
    M = ForwardBackwardSplit(s, lam)
    r = rng.standard_normal(s.ndof)
    x = M.apply(r)

    G = dense_dfb_forward_matrix(s, lam)
    r_dual = np.concatenate([r[s.dual_slice(n)] for n in range(s.n_slabs)])
    U = np.linalg.solve(G, r_dual)
    got_U = np.concatenate([x[s.primal_slice(n)] for n in range(s.n_slabs)])
    assert np.linalg.norm(got_U - U) <= 1e-10 * np.linalg.norm(U)

    xu = s.zero_vector()
    for n in range(s.n_slabs):
        m = s.n_primal
        xu[s.primal_slice(n)] = U[n * m : (n + 1) * m]
    stab = s.apply_primal_stabilized(xu)
    rhs2 = np.concatenate(
        [r[s.primal_slice(n)] - stab[s.primal_slice(n)] for n in range(s.n_slabs)]
    )
    Z = np.linalg.solve(G.T, rhs2)
    got_Z = np.concatenate([x[s.dual_slice(n)] for n in range(s.n_slabs)])
    assert np.linalg.norm(got_Z - Z) <= 1e-10 * np.linalg.norm(Z)


def test_dfb_rejects_order_mismatch():
    s = make_system(n_elems=4, n_slabs=2, k=2, q=1, kstar=1, qstar=1)
    with pytest.raises(ValueError, match="orders"):
        ForwardBackwardSplit(s, 10.0)


@pytest.mark.parametrize("kind", ["block", "mf", "ml", "dfb"])
def test_preconditioner_linearity(kind, rng):
    s = make_system(n_elems=4, n_slabs=3)
    M = build_preconditioner(s, kind)
    x = rng.standard_normal(s.ndof)
    y = rng.standard_normal(s.ndof)
    a, b = 1.3, -0.4
    lhs = M.apply(a * x + b * y)
    rhs = a * M.apply(x) + b * M.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


@pytest.mark.parametrize("kind", ["block", "mf", "ml", "dfb"])
def test_preconditioner_determinism(kind, rng):
    s = make_system(n_elems=4, n_slabs=2)
    M = build_preconditioner(s, kind)
    r = rng.standard_normal(s.ndof)
    assert np.array_equal(M.apply(r), M.apply(r))


def test_unknown_kind_rejected():
    s = make_system()
    with pytest.raises(ValueError):
        build_preconditioner(s, "ilu")
