import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from waveuc.cli import main
from waveuc.config import PRECONDITIONERS, PRESETS
from waveuc.krylov import GmresConfig, gmres
from waveuc.precond import (
    KINDS,
    BlockJacobi,
    ForwardBackwardSplit,
    LightForward,
    MonolithicForward,
    _Band,
    _BandLU,
    _node_order,
    build_preconditioner,
)
from waveuc.slab_forms import (
    SlabSpace,
    Triplets,
    assemble_A,
    assemble_dfb_extras,
    assemble_dual_stabilizer,
)

import waveuc.precond as precond
import waveuc.slab_forms as slab_forms
import waveuc.spacetime_system as spacetime_system

from conftest import ApplyOnly, make_system, same_csr


def dense_relaxed_matrix(system):
    """Dense matrix of the system with the interface jumps relaxed to their
    upstream-tested half (oracle for the forward sweep)."""
    D = system.dense_matrix()
    Mm = system.jump["minus"].toarray()
    C = system.jump["cross"].toarray()
    # D's slab blocks, as views: blocks[i, :, j] couples slab i to slab j
    N, size = system.n_slabs, system.slab_size
    blocks = D.reshape(N, size, N, size)
    p = slice(system.n_primal)
    for n in range(1, N):
        blocks[n - 1, p, n - 1, p] -= Mm
        blocks[n - 1, p, n, p] += C.T
    return D


def test_zero_maps_to_zero():
    s = make_system(n_elems=4, n_slabs=2)
    for kind in ("none", "block", "mf", "ml", "dfb"):
        M = build_preconditioner(s, kind)
        assert np.all(M.apply(np.zeros(s.ndof)) == 0)


# (k, q, kstar, qstar): equal orders of each degree and two mixes whose
# spatial degrees differ between the primal and dual pairs; the default
# (1, 1, 1, 1) case is the test without the suffix
MIXED_ORDERS = [(2, 2, 2, 2), (3, 3, 3, 3), (2, 1, 1, 2), (2, 2, 1, 0)]
# The relaxed matrix reaches condition numbers of 1e10 at k = q = 3, where
# two backward-stable solves differ by 1e-9 relative, so the checks over
# all orders ask for a solution at rounding level instead: a normwise
# backward error within a small multiple of eps (sweep and dense solve
# both measure about 2e-17).
BACKWARD_TOL = 1e-14


def backward_error(D, x, r):
    """Normwise backward error of x as a solution of D x = r (infinity
    norms): the smallest relative change of D and r that x solves."""
    return (np.linalg.norm(D @ x - r, np.inf)
            / (np.linalg.norm(D, np.inf) * np.linalg.norm(x, np.inf)
               + np.linalg.norm(r, np.inf)))


def orders_kwargs(orders):
    return dict(zip(("k", "q", "kstar", "qstar"), orders))


def order_id(orders):
    return "-".join(map(str, orders))


def test_forward_sweep_matches_dense_relaxed_solve(rng):
    for n_slabs in (2, 3):
        s = make_system(n_elems=4, n_slabs=n_slabs)
        M = MonolithicForward(s)
        r = rng.standard_normal(s.ndof)
        x = M.apply(r)
        xd = np.linalg.solve(dense_relaxed_matrix(s), r)
        assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)


@pytest.mark.parametrize("orders", MIXED_ORDERS, ids=order_id)
def test_forward_sweep_matches_dense_relaxed_solve_across_orders(orders, rng):
    for n_slabs in (2, 3):
        s = make_system(n_elems=4, n_slabs=n_slabs, **orders_kwargs(orders))
        r = rng.standard_normal(s.ndof)
        x = MonolithicForward(s).apply(r)
        assert backward_error(dense_relaxed_matrix(s), x, r) <= BACKWARD_TOL


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


def dense_slab_block(system):
    """Dense slab-diagonal block without any interface terms (oracle for
    block Jacobi)."""
    s = system
    return np.block(
        [[(s.Sh + s.Momega).toarray(), s.A_pd.T.toarray()],
         [s.A_pd.toarray(), -s.Sstar.toarray()]]
    )


def test_block_jacobi_matches_dense_block_solve(rng):
    s = make_system(n_elems=4, n_slabs=2)
    M = BlockJacobi(s)
    r = rng.standard_normal(s.ndof)
    x = M.apply(r)
    blk = dense_slab_block(s)
    for n in range(s.n_slabs):
        sl = slice(n * s.slab_size, (n + 1) * s.slab_size)
        xd = np.linalg.solve(blk, r[sl])
        assert np.linalg.norm(x[sl] - xd) <= 1e-10 * np.linalg.norm(xd)


def check_block_jacobi(s, r):
    X = s.slab_view(BlockJacobi(s).apply(r))
    blk = dense_slab_block(s)
    for x, rn in zip(X, s.slab_view(r)):
        assert backward_error(blk, x, rn) <= BACKWARD_TOL


@pytest.mark.parametrize("orders", MIXED_ORDERS, ids=order_id)
def test_block_jacobi_matches_dense_block_solve_across_orders(orders, rng):
    s = make_system(n_elems=4, n_slabs=2, **orders_kwargs(orders))
    check_block_jacobi(s, rng.standard_normal(s.ndof))


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
    M = LightForward(s)
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
    M_red = LightForward(s)
    r = rng.standard_normal(s.ndof)
    a, b = M_full.apply(r), M_red.apply(r)
    assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(a)


def test_ml_is_the_light_sweep_at_the_light_orders_too():
    s = make_system(n_elems=4, n_slabs=2, k=1, q=1, kstar=1, qstar=0)
    M = build_preconditioner(s, "ml")
    assert type(M) is LightForward
    assert getattr(M, "defect", None) is None


@pytest.mark.parametrize("n_slabs, k", [
    pytest.param(1, 2, id="1"),
    pytest.param(3, 2, id="3"),
    pytest.param(1, 3, id="1-k3"),
    pytest.param(3, 3, id="3-k3"),
])
def test_reduced_dual_sweep_solves_dual_rows(n_slabs, k, rng):
    # the dual output is recovered from the slab-local dual-test rows, so
    # those rows of the system hold exactly on every slab
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=k, kstar=k, qstar=k)
    M = LightForward(s)
    r = rng.standard_normal(s.ndof)
    Y, R = s.slab_view(s.apply(M.apply(r))), s.slab_view(r)
    d = slice(s.n_primal, None)
    for n in range(s.n_slabs):
        assert (np.linalg.norm(Y[n, d] - R[n, d])
                <= 1e-10 * np.linalg.norm(R[n, d]))


def dense_dfb_forward_matrix(system, lam):
    """Dense slab-triangular matrix of the enriched forward operator."""
    from waveuc.slab_forms import assemble_dfb_extras

    extras = {name: block.tocsr() for name, block in assemble_dfb_extras(
        system.primal, system.dual, system.data, lam).items()}
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


def check_dfb_sweeps(s, r):
    lam = s.config.resolved_lambda()
    x = ForwardBackwardSplit(s).apply(r)

    G = dense_dfb_forward_matrix(s, lam)
    # the primal and dual parts of every slab, slab-major
    R, X = s.slab_view(r), s.slab_view(x)
    p, d = slice(s.n_primal), slice(s.n_primal, None)
    U = np.linalg.solve(G, R[:, d].ravel())
    got_U = X[:, p].ravel()
    assert np.linalg.norm(got_U - U) <= 1e-10 * np.linalg.norm(U)

    xu = np.zeros(s.ndof)
    s.slab_view(xu)[:, p] = U.reshape(s.n_slabs, s.n_primal)
    # the primal-test rows of A on a primal-only vector
    stab = s.slab_view(s.apply(xu))
    Z = np.linalg.solve(G.T, (R[:, p] - stab[:, p]).ravel())
    got_Z = X[:, d].ravel()
    assert np.linalg.norm(got_Z - Z) <= 1e-10 * np.linalg.norm(Z)


# k = q = 1 keeps the ids of the slab count alone
@pytest.mark.parametrize("n_slabs, k", [
    pytest.param(n_slabs, k, id=str(n_slabs) if k == 1 else f"{n_slabs}-k{k}")
    for k in (1, 2, 3) for n_slabs in (1, 2, 3, 5)
])
def test_dfb_sweeps_match_dense_triangular_solves(n_slabs, k, rng):
    # three slabs give a middle slab that both sweeps couple on both sides;
    # five carry the end values across several interior slabs each way
    s = make_system(n_elems=4, n_slabs=n_slabs, k=k, q=k, kstar=k, qstar=k)
    check_dfb_sweeps(s, rng.standard_normal(s.ndof))


def test_dfb_rejects_order_mismatch():
    s = make_system(n_elems=4, n_slabs=2, k=2, q=1, kstar=1, qstar=1,
                    lam=10.0)
    with pytest.raises(ValueError, match="orders"):
        ForwardBackwardSplit(s)


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
    with pytest.raises(ValueError,
                       match=r"^unknown preconditioner kind: 'ilu'$"):
        build_preconditioner(s, "ilu")


def test_every_configurable_kind_is_one_class_of_the_table():
    assert tuple(KINDS) == PRECONDITIONERS
    s = make_system()
    for kind, cls in KINDS.items():
        M = build_preconditioner(s, kind)
        assert type(M) is cls


def test_identity_apply_returns_its_argument():
    s = make_system()
    r = np.random.default_rng(4).standard_normal(s.ndof)
    assert build_preconditioner(s, "none").apply(r) is r


@pytest.mark.parametrize("kind", PRECONDITIONERS)
def test_every_kind_solves_through_its_apply_alone(kind):
    s = make_system(n_elems=8, n_slabs=4)
    b = s.assemble_rhs(PRESETS["gcc1d"].u)
    x, report = gmres(s.apply, b, ApplyOnly(build_preconditioner(s, kind)),
                      GmresConfig(tol=1e-8, maxiter=s.ndof))
    assert report.converged
    assert np.linalg.norm(b - s.apply(x)) <= 1e-7 * np.linalg.norm(b)


# -- singular slab blocks ------------------------------------------------------

@pytest.mark.parametrize("kind, label", [
    ("block", "slab-diagonal block"),
    ("mf", "interior slab"),
    ("ml", "dual stabilizer"),
])
def test_singular_slab_block_raises(kind, label):
    s = make_system(n_elems=4, n_slabs=2)
    # no wave operator and no dual stabilizer: the dual rows of every
    # monolithic slab block vanish
    s.A_pd = 0.0 * s.A_pd
    s.Sstar = 0.0 * s.Sstar
    with pytest.raises(ValueError,
                       match=rf"^singular slab system \({label}\): zero pivot"):
        build_preconditioner(s, kind)


def test_singular_dfb_block_raises(monkeypatch):
    def no_extras(primal, dual, data, lam):
        zero = Triplets.of(sp.csr_matrix((dual.n_pair, primal.n_pair)))
        return dict.fromkeys(
            ("observer", "nitsche", "coupling_diag", "coupling_sub"), zero)

    monkeypatch.setattr("waveuc.precond.assemble_dfb_extras", no_extras)
    s = make_system(n_elems=4, n_slabs=2, lam=10.0)
    s.A_pd = 0.0 * s.A_pd
    with pytest.raises(ValueError, match=r"^singular slab system "
                       r"\(interior slab, forward sweep\): zero pivot"):
        ForwardBackwardSplit(s)


def test_singular_slab_block_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        spacetime_system, "assemble_A",
        lambda primal, dual: Triplets.of(
            sp.csr_matrix((dual.n_pair, primal.n_pair))))
    monkeypatch.setattr(
        spacetime_system, "assemble_dual_stabilizer",
        lambda dual: Triplets.of(sp.csr_matrix((dual.n_pair, dual.n_pair))))
    code = main(["solve", "--slabs", "2", "--elems", "4", "--precond", "block"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: singular slab system (slab-diagonal block)")


# -- properties over random orders and meshes ----------------------------------

@st.composite
def small_systems(draw, equal_orders=False, elems=(4, 8), max_slabs=3):
    """A valid system, small enough for dense oracles (at most 1200 dofs),
    and a generator for its random vectors.  Element counts are multiples
    of 4, as the data intervals of both presets end on quarters of [0, 1]."""
    k = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    if equal_orders:
        kstar, qstar = k, q
    else:
        kstar = draw(st.integers(1, 3))
        qstar = draw(st.integers(0, 3))
    s = make_system(draw(st.sampled_from(["gcc1d", "nogcc1d"])),
                    k=k, q=q, kstar=kstar, qstar=qstar,
                    n_slabs=draw(st.integers(1, max_slabs)),
                    n_elems=draw(st.sampled_from(elems)))
    assert s.ndof <= spacetime_system.DENSE_DOF_LIMIT
    return s, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=15)
@given(small_systems())
def test_property_mf_matches_dense_relaxed_solve(case):
    s, rng = case
    r = rng.standard_normal(s.ndof)
    x = MonolithicForward(s).apply(r)
    assert backward_error(dense_relaxed_matrix(s), x, r) <= BACKWARD_TOL


@settings(max_examples=15)
@given(small_systems())
def test_property_block_matches_dense_block_solve(case):
    s, rng = case
    check_block_jacobi(s, rng.standard_normal(s.ndof))


@settings(max_examples=15)
@given(small_systems(equal_orders=True))
def test_property_dfb_matches_dense_triangular_solves(case):
    s, rng = case
    check_dfb_sweeps(s, rng.standard_normal(s.ndof))


@settings(max_examples=15)
@given(small_systems(elems=(4,), max_slabs=2))
def test_property_ml_is_linear_and_injective(case):
    s, rng = case
    M = LightForward(s)
    x = rng.standard_normal(s.ndof)
    y = rng.standard_normal(s.ndof)
    lhs = M.apply(0.3 * x - 1.7 * y)
    rhs = 0.3 * M.apply(x) - 1.7 * M.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)
    # injective: the dense matrix of the map, column by column, has full rank
    columns = [M.apply(e) for e in np.eye(s.ndof)]
    assert np.linalg.matrix_rank(np.array(columns)) == s.ndof


@settings(max_examples=15)
@given(small_systems(), st.data())
def test_property_block_keeps_slab_support(case, data):
    s, rng = case
    n = data.draw(st.integers(0, s.n_slabs - 1), label="slab")
    r = np.zeros(s.ndof)
    sl = slice(n * s.slab_size, (n + 1) * s.slab_size)
    r[sl] = rng.standard_normal(s.slab_size)
    x = BlockJacobi(s).apply(r)
    mask = np.ones(s.ndof, dtype=bool)
    mask[sl] = False
    assert np.all(x[mask] == 0)
    assert np.any(x[sl] != 0)


# -- the defect of the sweeps that invert the system up to jump terms ----------

@pytest.mark.parametrize("n_slabs", [1, 2, 3])
@pytest.mark.parametrize("orders", [(1, 1, 1, 1)] + MIXED_ORDERS,
                         ids=order_id)
def test_every_jump_block_on_the_traces_is_the_jump_weight(orders, n_slabs):
    s = make_system(n_elems=4, n_slabs=n_slabs, **orders_kwargs(orders))
    jump = s.jump
    cross_T = jump["cross"].T.tocsr()
    # the traces as the rows the jump blocks read and reach: end rows from
    # minus and the transposed cross, start rows from plus and cross
    end = np.union1d(jump["minus"].nonzero()[0], cross_T.nonzero()[0])
    start = np.union1d(jump["plus"].nonzero()[0], jump["cross"].nonzero()[0])
    assert np.array_equal(s.trace, np.concatenate((end, start)))
    assert s.n_end == len(end)
    for name, rows, cols in (("minus", end, end), ("plus", start, start),
                             ("cross", start, end)):
        assert same_csr(jump[name][rows][:, cols], s.jump_weight), name
    assert same_csr(cross_T[end][:, start], s.jump_weight_T)


@settings(max_examples=20)
@given(st.integers(1, 2), st.integers(1, 2), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from([4, 8]), st.sampled_from(["gcc1d", "nogcc1d"]),
       st.sampled_from(["mf", "block"]), st.integers(0, 2**32 - 1))
def test_property_defect_is_where_the_preconditioned_operator_leaves_identity(
        k, q, n_slabs, n_elems, preset, kind, seed):
    s = make_system(preset, k=k, q=q, kstar=k, qstar=q, n_slabs=n_slabs,
                    n_elems=n_elems)
    M = build_preconditioner(s, kind)
    rows = M.defect.rows
    assert np.array_equal(rows, np.unique(rows))
    if n_slabs == 1:
        assert len(rows) == 0
    r = np.random.default_rng(seed).standard_normal(s.ndof)
    z = M.apply(r)
    # A (M r) - r = E M r, E = A - M^-1, is nonzero on the defect rows only
    excess = s.apply(z) - r
    scale = (np.linalg.norm(s.dense_matrix(), np.inf)
             * np.linalg.norm(z, np.inf))
    off = np.ones(s.ndof, dtype=bool)
    off[rows] = False
    assert np.abs(excess[off]).max() <= 1e-13 * scale
    assert np.abs(excess[rows] - M.defect(z)).max(initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["ml", "dfb", "none"])
def test_other_preconditioners_expose_no_defect(kind):
    # ml sweeps at dual orders (1, 0), below the system's (1, 1)
    s = make_system(n_slabs=3)
    assert getattr(build_preconditioner(s, kind), "defect", None) is None


@settings(max_examples=30)
@given(st.integers(1, 2), st.integers(1, 2), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from([4, 8]), st.sampled_from(["gcc1d", "nogcc1d"]),
       st.sampled_from(["mf", "block"]), st.data(), st.integers(0, 2**32 - 1))
def test_property_em_is_the_defect_of_the_preconditioned_vector(
        k, q, n_slabs, n_elems, preset, kind, data, seed):
    # dual orders equal to or below the primal ones
    kstar = data.draw(st.integers(1, k), label="kstar")
    qstar = data.draw(st.integers(0, q), label="qstar")
    s = make_system(preset, k=k, q=q, kstar=kstar, qstar=qstar,
                    n_slabs=n_slabs, n_elems=n_elems)
    M = build_preconditioner(s, kind)
    rows = M.defect.rows
    v = np.random.default_rng(seed).standard_normal(len(rows))
    on_rows = np.zeros(s.ndof)
    on_rows[rows] = v
    # (E M v) on the rows, from the slab traces alone and from a full sweep
    em = M.defect.em(v)
    swept = M.defect(M.apply(on_rows))
    assert em.shape == swept.shape == (len(rows),)
    assert np.linalg.norm(em - swept) <= 1e-9 * np.linalg.norm(swept)


@pytest.mark.parametrize("kind", ["mf", "block"])
def test_traces_are_built_on_the_first_em_only(kind):
    s = make_system(n_slabs=3)
    defect = build_preconditioner(s, kind).defect
    assert "_traces" not in vars(defect)
    defect.em(np.zeros(len(defect.rows)))
    traces = vars(defect)["_traces"]
    defect.em(np.ones(len(defect.rows)))
    assert vars(defect)["_traces"] is traces


@pytest.mark.parametrize("kind", ["mf", "block"])
def test_trace_bytes_are_what_the_first_em_keeps(kind):
    s = make_system(k=2, q=2, kstar=2, qstar=2, n_slabs=3)
    defect = build_preconditioner(s, kind).defect
    r, t = s.n_end, len(s.trace)
    assert defect.trace_bytes == 8 * (4 * r * r if kind == "mf" else t * t)
    defect.em(np.ones(len(defect.rows)))
    traces = vars(defect)["_traces"]
    arrays = [traces] if kind == "block" else list(traces)
    # the memory the cache keeps alive, views counted by what they view
    owners = [a if a.base is None else a.base for a in arrays]
    assert sum(a.nbytes for a in owners) == defect.trace_bytes
    if kind == "mf":
        assert all(a.shape != (t, t) for a in arrays)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["mf", "ml", "block", "dfb"])
def test_band_bytes_are_the_factored_band(kind, k):
    s = make_system(k=k, q=k, kstar=k, qstar=k, n_elems=8, n_slabs=3)
    M = build_preconditioner(s, kind)
    lus = {id(lu): lu for lu in getattr(M, "lus", [])}
    for name in ("lu", "sstar_lu"):
        if hasattr(M, name):
            lus[id(getattr(M, name))] = getattr(M, name)
    assert lus
    for lu in lus.values():
        assert lu.band_bytes == lu.lu.nbytes


@pytest.mark.parametrize("n_slabs", [2, 5])
def test_mf_em_makes_one_band_solve_and_no_trace_jumps(n_slabs, monkeypatch):
    s = make_system(k=2, q=2, kstar=2, qstar=2, n_slabs=n_slabs)
    M = build_preconditioner(s, "mf")

    def refuse(X):
        raise AssertionError("em called trace_jumps")

    monkeypatch.setattr(s, "trace_jumps", refuse)
    # band solves of either entry point, each with the columns it solves
    solved = []
    solve, trace_solve = _BandLU.solve, _BandLU.trace_solve

    def counted(lu, b, trans=0):
        solved.append((lu, b.shape[1:]))
        return solve(lu, b, trans)

    def counted_traces(lu, T, rows, B):
        solved.append((lu, B.shape[1:]))
        return trace_solve(lu, T, rows, B)

    monkeypatch.setattr(_BandLU, "solve", counted)
    monkeypatch.setattr(_BandLU, "trace_solve", counted_traces)
    rng = np.random.default_rng(5)
    # the first call builds the trace blocks from band solves
    M.defect.em(rng.standard_normal(len(M.defect.rows)))
    for _ in range(3):
        solved.clear()
        M.defect.em(rng.standard_normal(len(M.defect.rows)))
        # one right-hand side, on the first slab
        assert len(solved) == 1
        lu, columns = solved[0]
        assert lu is M.lus[0] and columns in ((), (1,))


@pytest.mark.parametrize("n_slabs", [1, 2, 5])
def test_dfb_apply_makes_one_band_solve_per_lu_and_no_operator_apply(
        n_slabs, monkeypatch):
    s = make_system(n_elems=4, n_slabs=n_slabs)
    M = build_preconditioner(s, "dfb")
    first, interior = M.lus[0], M.lus[-1]

    def refuse(x):
        raise AssertionError("dfb apply called SpaceTimeSystem.apply")

    monkeypatch.setattr(s, "apply", refuse)
    solved = []
    solve = _BandLU.solve

    def counted(lu, b, trans=0):
        solved.append((lu, trans))
        return solve(lu, b, trans)

    monkeypatch.setattr(_BandLU, "solve", counted)
    M.apply(np.random.default_rng(3).standard_normal(s.ndof))
    # each sweep solves every slab of one LU at once, however many slabs
    # there are: forward first then interior, backward (transposed) in
    # the reverse order
    if n_slabs == 1:
        assert solved == [(first, 0), (first, 1)]
    else:
        assert solved == [(first, 0), (interior, 0), (interior, 1), (first, 1)]


@pytest.mark.parametrize("n_slabs", [1, 2, 5])
def test_ml_apply_makes_one_band_solve_per_lu_and_one_dual_solve(
        n_slabs, monkeypatch):
    s = make_system(n_elems=4, n_slabs=n_slabs)
    M = build_preconditioner(s, "ml")
    solved = []
    solve = _BandLU.solve

    def counted(lu, b, trans=0):
        solved.append(lu)
        return solve(lu, b, trans)

    monkeypatch.setattr(_BandLU, "solve", counted)
    M.apply(np.random.default_rng(3).standard_normal(s.ndof))
    # the sweep solves every slab of one LU at once, however many slabs
    # there are, then the dual stabilizer recovers the dual part of all
    assert solved == M.lus[:2] + [M.sstar_lu]


@pytest.mark.parametrize("n_slabs", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_carry_bytes_are_what_the_sweep_keeps(k, n_slabs):
    s = make_system(k=k, q=k, kstar=k, qstar=k, n_elems=8, n_slabs=n_slabs)
    M = build_preconditioner(s, "dfb")
    n_p = s.n_primal
    # the coupling reads the primal end values: n_x per field
    c = 2 * s.primal.n_x
    # the forward sweep couples into interior slabs only; the backward one
    # into interior slabs (with three slabs or more) and the first
    coupled = {"forward": min(n_slabs - 1, 1),
               "backward": min(n_slabs - 1, 1) + (n_slabs >= 3)}
    for name, n_lus in coupled.items():
        sweep = getattr(M, name)
        assert len(sweep.carried) == c
        assert sweep.carry_bytes == 8 * n_lus * (n_p + c) * c
        kept = [a for _, _, _, K, K_c in sweep._runs if K is not None
                for a in (K, K_c)]
        assert sum(a.nbytes for a in kept) == sweep.carry_bytes


# -- set-up: one assembled block per sweep, the jump only on its traces -------

@pytest.mark.parametrize("n_slabs", [1, 2, 3])
def test_solver_path_never_assembles_the_full_jump_blocks(n_slabs,
                                                          monkeypatch):
    def refuse(space):
        raise AssertionError("interface_jump_blocks called")

    monkeypatch.setattr(slab_forms, "interface_jump_blocks", refuse)
    monkeypatch.setattr(spacetime_system, "interface_jump_blocks", refuse)
    s = make_system(n_elems=4, n_slabs=n_slabs)
    r = np.random.default_rng(11).standard_normal(s.ndof)
    s.apply(r)
    s.assemble_rhs(PRESETS["gcc1d"].u)
    for kind in ("block", "mf", "ml", "dfb"):
        M = build_preconditioner(s, kind)
        z = M.apply(r)
        defect = getattr(M, "defect", None)
        if defect is not None:
            defect(z)
            defect.em(np.ones(len(defect.rows)))
    # the dense oracle is what reads them
    with pytest.raises(AssertionError, match="interface_jump_blocks"):
        s.dense_matrix()


def assembled_interior_lu(s, kind):
    """_BandLU of the interior slab block of kind's sweep, assembled in full:
    mf and ml add the jump block plus to the primal diagonal, dfb adds
    coupling_diag to its first slab's block."""
    if kind == "dfb":
        extras = {name: block.tocsr() for name, block in assemble_dfb_extras(
            s.primal, s.dual, s.data, s.config.resolved_lambda()).items()}
        block = (s.A_pd + extras["observer"] + extras["nitsche"]
                 + extras["coupling_diag"])
        perm = _node_order(s.primal)
    else:
        dual = s.dual if kind == "mf" else SlabSpace(s.mesh, 1, 0, s.config.dt)
        A = assemble_A(s.primal, dual).tocsr()
        Sstar = assemble_dual_stabilizer(dual).tocsr()
        block = sp.bmat([[(s.Sh + s.Momega) + s.jump["plus"], A.T],
                         [A, -Sstar]])
        perm = _node_order(s.primal, dual)
    return _BandLU(_Band(Triplets.of(sp.csr_matrix(block)), perm),
                   "interior slab")


@pytest.mark.parametrize("kind, orders", [
    pytest.param(kind, orders, id=f"{kind}-{order_id(orders)}")
    for orders in MIXED_ORDERS for kind in ("mf", "ml", "dfb")
    if kind != "dfb" or orders[:2] == orders[2:]])
def test_interior_lu_is_the_lu_of_the_assembled_interior_block(kind, orders):
    s = make_system(n_elems=4, n_slabs=3, **orders_kwargs(orders))
    lus = build_preconditioner(s, kind).lus
    got, want = lus[-1], assembled_interior_lu(s, kind)
    assert got is lus[1] and got is not lus[0]
    assert (got.kl, got.ku) == (want.kl, want.ku)
    assert got.lu.tobytes() == want.lu.tobytes()
    assert got.piv.tobytes() == want.piv.tobytes()


@pytest.mark.parametrize("kind", ["mf", "ml"])
@pytest.mark.parametrize("orders", MIXED_ORDERS, ids=order_id)
def test_sweep_coupling_is_the_cross_block_padded(orders, kind):
    s = make_system(n_elems=4, n_slabs=3, **orders_kwargs(orders))
    M = build_preconditioner(s, kind)
    n = len(M.lus[0].perm)
    cross = s.jump["cross"].copy()
    cross.resize(n, n)
    if isinstance(M, MonolithicForward):
        # mf applies W on the traces; slab by slab that is the padded cross
        # block applied to the slab solved before, to the last bit
        r = np.random.default_rng(5).standard_normal(s.ndof)
        R, X = s.slab_view(r), s.slab_view(M.apply(r))
        for n in (1, 2):
            want = M.lus[n].solve(R[n] + cross @ X[n - 1])
            assert X[n].tobytes() == want.tobytes()
        return
    # the light sweep keeps only the coupling's nonzero columns, solved
    # against the interior LU
    carried = np.flatnonzero(cross.getnnz(axis=0))
    assert np.array_equal(M.sweep.carried, carried)
    _, _, _, K, _ = M.sweep._runs[1]
    assert np.array_equal(K, M.lus[1].solve(cross[:, carried].toarray()))


@pytest.mark.parametrize("kind", ["mf", "ml", "block", "dfb"])
def test_band_pattern_is_the_factored_band(kind, monkeypatch):
    # test_band_bytes_are_the_factored_band covers k = 1 and 2 after the
    # factorization; the order is what this test adds, and it holds at any k
    s = make_system(k=2, q=2, kstar=2, qstar=2, n_elems=8, n_slabs=3)
    stated, factored = [], []
    factor = precond.dgbtrf

    def counted(ab, kl, ku, **kwargs):
        factored.append(ab.shape)
        return factor(ab, kl, ku, **kwargs)

    monkeypatch.setattr(precond, "dgbtrf", counted)
    init = _BandLU.__init__

    def checked(lu, band, label):
        # the pattern step's figures, read before this band's dgbtrf runs
        stated.append((len(factored), band.kl, band.ku, band.band_bytes,
                       band.ab.shape, band.ab.nbytes))
        init(lu, band, label)
        calls, kl, ku, band_bytes, shape, nbytes = stated[-1]
        assert len(factored) == calls + 1
        assert (lu.kl, lu.ku) == (kl, ku)
        assert lu.lu.shape == shape == (2 * kl + ku + 1, len(lu.perm))
        assert lu.lu.nbytes == band_bytes == nbytes

    monkeypatch.setattr(_BandLU, "__init__", checked)
    build_preconditioner(s, kind)
    assert len(stated) == len(factored) == {"block": 1, "ml": 3}.get(kind, 2)


def test_band_pattern_needs_no_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dgbtrf called")

    monkeypatch.setattr(precond, "dgbtrf", refuse)
    rng = np.random.default_rng(4)
    n = 40
    block = sp.random(n, n, density=0.05, random_state=rng) + sp.identity(n)
    perm = rng.permutation(n)
    band = _Band(Triplets.of(block.tocsr()), perm)
    # offsets of the permuted block's entries, row minus column
    rows, cols = np.nonzero(block.toarray()[perm][:, perm])
    assert band.kl == (rows - cols).max() and band.ku == (cols - rows).max()
    assert band.band_bytes == 8 * n * (2 * band.kl + band.ku + 1)
    assert band.ab.nbytes == band.band_bytes


@pytest.mark.parametrize("kind", ["mf", "ml", "dfb"])
def test_one_slab_factors_no_interior_band(kind, monkeypatch):
    def refuse(band, term):
        raise AssertionError("interior band built")

    monkeypatch.setattr(_Band, "plus", refuse)
    labels = []
    init = _BandLU.__init__

    def recorded(lu, band, label):
        labels.append(label)
        init(lu, band, label)

    monkeypatch.setattr(_BandLU, "__init__", recorded)
    M = build_preconditioner(make_system(n_elems=4, n_slabs=1), kind)
    assert len(M.lus) == 1
    assert not any(label.startswith("interior") for label in labels)
