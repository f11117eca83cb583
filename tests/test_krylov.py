import errno
import mmap
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtpsv

from waveuc.config import PRESETS
from waveuc.krylov import GmresBreakdown, GmresConfig, SolveReport, gmres
from waveuc.precond import MonolithicForward, build_preconditioner

from conftest import ApplyOnly, make_system


class MatrixOp:
    def __init__(self, A):
        self.A = A

    def __call__(self, x):
        return self.A @ x


class ExactInverse:
    def __init__(self, A):
        self.A = A

    def apply(self, r):
        return np.linalg.solve(self.A, r)


def test_identity_operator_one_iteration(rng):
    b = rng.standard_normal(30)
    x, report = gmres(lambda v: v, b)
    assert report.converged and report.iterations == 1
    assert np.allclose(x, b, atol=1e-12)


def test_zero_rhs():
    x, report = gmres(lambda v: 2 * v, np.zeros(10))
    assert report.converged and report.iterations == 0
    assert np.all(x == 0)


def test_small_system_matches_dense_solve(rng):
    s = make_system(n_elems=4, n_slabs=2)
    b = s.assemble_rhs(lambda t, x: np.sin(np.pi * x))
    x, report = gmres(s.apply, b, cfg=GmresConfig(tol=1e-9, maxiter=s.ndof))
    assert report.converged
    xd = np.linalg.solve(s.dense_matrix(), b)
    assert np.linalg.norm(x - xd) <= 1e-6 * np.linalg.norm(xd)


def test_exact_preconditioner_one_iteration(rng):
    A = rng.standard_normal((25, 25)) + 10 * np.eye(25)
    b = rng.standard_normal(25)
    x, report = gmres(MatrixOp(A), b, ExactInverse(A))
    assert report.converged and report.iterations == 1
    assert np.linalg.norm(A @ x - b) <= 1e-7 * np.linalg.norm(b)


def test_single_slab_system_one_iteration():
    s = make_system(n_elems=4, n_slabs=1)
    b = s.assemble_rhs(lambda t, x: np.sin(np.pi * x))
    x, report = gmres(s.apply, b, MonolithicForward(s))
    assert report.converged and report.iterations == 1


def test_maxiter_returns_best_iterate(rng):
    A = rng.standard_normal((40, 40)) + 6 * np.eye(40)
    b = rng.standard_normal(40)
    x, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-14, maxiter=5))
    assert not report.converged
    assert report.iterations == 5
    # the returned iterate is the residual minimizer over the Krylov space
    assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)


def test_arnoldi_orthogonality(rng):
    A = rng.standard_normal((60, 60)) + 4 * np.eye(60)
    b = rng.standard_normal(60)
    _, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-12, maxiter=60),
                      keep_basis=True)
    Q = report.basis
    gram = Q @ Q.T
    assert np.abs(gram - np.eye(len(gram))).max() <= 1e-8


def test_residual_history_and_true_residual_logging(rng):
    A = rng.standard_normal((80, 80)) + 4 * np.eye(80)
    b = rng.standard_normal(80)
    lines = []
    x, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-10, maxiter=80),
                      log=lambda it, est, tr: lines.append((it, est, tr)))
    assert report.converged
    assert len(report.residual_history) == report.iterations
    assert report.residual_history[-1] <= 1e-10
    # true residual recomputed every tenth iteration
    for it, val in report.true_residuals:
        assert it % 10 == 0
        assert val == pytest.approx(report.residual_history[it - 1], rel=1e-3)
    assert [l[0] for l in lines] == list(range(1, report.iterations + 1))


def test_converged_final_residual_is_true(rng):
    A = rng.standard_normal((50, 50)) + 5 * np.eye(50)
    b = rng.standard_normal(50)
    x, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-8, maxiter=50))
    assert report.converged
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-7


def test_breakdown_after_exact_subspace_capture():
    # operator with a 2-dimensional Krylov space and happy breakdown
    A = np.diag([1.0, 2.0, 2.0, 2.0])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    x, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-12, maxiter=10))
    assert report.converged and report.iterations <= 3
    assert np.allclose(A @ x, b, atol=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        GmresConfig(tol=0.0).validate()
    with pytest.raises(ValueError):
        GmresConfig(maxiter=0).validate()


def test_breakdown_test_is_relative_to_the_operator_scale(rng):
    A = rng.standard_normal((40, 40)) + 6 * np.eye(40)
    b = rng.standard_normal(40)
    cfg = GmresConfig(tol=1e-10, maxiter=40)
    _, unscaled = gmres(MatrixOp(A), b, cfg=cfg)
    assert unscaled.converged
    for c in (1e-15, 1e15):
        x, report = gmres(MatrixOp(c * A), b, cfg=cfg)
        assert report.converged
        assert report.iterations == unscaled.iterations
        assert np.linalg.norm(b - c * A @ x) <= 1e-8 * np.linalg.norm(b)


def test_zero_operator_breaks_down(rng):
    with pytest.warns(RuntimeWarning):
        with pytest.raises(GmresBreakdown):
            gmres(lambda v: 0.0 * v, rng.standard_normal(12))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_is_refused_before_any_iteration(bad, rng):
    b = rng.standard_normal(40)
    b[7] = bad
    calls = []

    def op(v):
        calls.append(1)
        return 2 * v

    with pytest.raises(ValueError, match="non-finite"):
        gmres(op, b, cfg=GmresConfig(maxiter=40))
    assert not calls


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_breaks_down_at_once(bad, rng):
    def op(v):
        w = 2 * v
        w[7] = bad
        return w

    # maxiter 1: on the last iteration too, which needs no basis vector
    for maxiter in (40, 1):
        lines = []
        with np.errstate(invalid="ignore"):
            with pytest.raises(GmresBreakdown, match="at iteration 1 "):
                gmres(op, rng.standard_normal(40),
                      cfg=GmresConfig(maxiter=maxiter),
                      log=lambda *a: lines.append(a))
        assert len(lines) == 1


def test_breakdown_on_a_check_iteration_raises_breakdown(rng):
    # a zero column on a true-residual check iteration: the check's back
    # substitution divides by the zero diagonal, and the solve breaks down
    # as it does on any other iteration
    calls = []

    def op(v):
        calls.append(1)
        return 0.0 * v if len(calls) >= 10 else 2 * v + np.roll(v, 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(GmresBreakdown, match="at iteration 10 "):
            gmres(op, rng.standard_normal(40), cfg=GmresConfig(maxiter=40))


@pytest.fixture
def mappings(monkeypatch):
    """The anonymous mappings made while the test runs, as (size, weakref)
    pairs that do not keep them alive."""
    made = []
    real = mmap.mmap

    def record(*args, **kwargs):
        mapping = real(*args, **kwargs)
        made.append((len(mapping), weakref.ref(mapping)))
        return mapping

    monkeypatch.setattr(mmap, "mmap", record)
    return made


def test_solve_reserves_only_the_basis_and_the_packed_triangle(rng, mappings):
    # maxiter < n, so the basis is not the whole space; every iteration
    # runs, and every row of the basis and column of the triangle is
    # written, so the peak is the whole reservation
    n, maxiter = 600, 400
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    b = rng.standard_normal(n)
    tracemalloc.start()
    try:
        _, report = gmres(MatrixOp(A), b,
                          cfg=GmresConfig(tol=1e-300, maxiter=maxiter))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations == maxiter
    # the basis and the triangle: one mapping of exactly their size
    reserved = 8 * ((maxiter + 1) * n + maxiter * (maxiter + 1) // 2)
    assert [size for size, _ in mappings] == [reserved]
    # on the heap: a few n-vectors, and the Python floats of each iteration
    # (its rotation, its estimate and the list of one column)
    assert peak <= 8 * 8 * n + 256 * maxiter


@pytest.mark.parametrize("path,keep_basis", [
    ("full", False), ("full", True), ("defect", True)])
def test_the_reservation_is_released_when_gmres_returns(
        path, keep_basis, rng, mappings):
    # neither the iterate nor the kept basis is a view of the mapping, so
    # it is unmapped on return, while both are still alive
    if path == "full":
        n = 60
        A = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
        x, report = gmres(MatrixOp(A), rng.standard_normal(n),
                          keep_basis=keep_basis)
    else:
        s, b = solve_system("gcc1d", 1, 4)
        x, report = gmres(s.apply, b, build_preconditioner(s, "mf"),
                          keep_basis=keep_basis)
    assert report.converged and (report.basis is not None) == keep_basis
    ((_, mapping),) = mappings
    assert mapping() is None


def test_a_refused_reservation_raises_memory_error_before_the_solve(
        rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(mmap, "mmap", refuse)
    calls = []

    class Counted:
        def apply(self, r):
            calls.append("M")
            return r

    def op(v):
        calls.append("A")
        return 2 * v

    n, maxiter = 40, 30
    reserved = 8 * ((maxiter + 1) * n + maxiter * (maxiter + 1) // 2)
    with pytest.raises(MemoryError, match=f"cannot reserve {reserved} bytes"):
        gmres(op, rng.standard_normal(n), Counted(),
              GmresConfig(maxiter=maxiter))
    assert calls == []


def test_exhausted_space_returns_the_iterate_unconverged(rng):
    # after n iterations the Krylov space is the whole space, so the next
    # basis vector is rounding noise: no tolerance is met, nothing breaks
    # down, and the iterate solves the system
    n = 20
    A = rng.standard_normal((n, n)) + 6 * np.eye(n)
    b = rng.standard_normal(n)
    x, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-300),
                      keep_basis=True)
    assert not report.converged and report.iterations == n
    assert report.basis.shape == (n, n)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


# -- bitwise equivalence with the dense-solve bookkeeping ---------------------

def _dense_bookkeeping_gmres(apply_op, b, precond, cfg, log=None,
                             keep_basis=False):
    """gmres with the least-squares bookkeeping done the direct way: Givens
    rotations indexed element by element on NumPy arrays of the dense
    Hessenberg, and every iterate from its triangle, packed column by column
    and solved with the same BLAS tpsv (and checked against a dense solve).
    Arnoldi is the same CGS2."""
    apply_m = precond.apply
    report = SolveReport()
    n = len(b)
    beta = np.linalg.norm(b)
    maxiter = min(cfg.maxiter, n)
    Q = np.empty((maxiter + 1, n))
    H = np.zeros((maxiter + 1, maxiter))
    g = np.zeros(maxiter + 1)
    cs = np.zeros(maxiter)
    sn = np.zeros(maxiter)
    Q[0] = b / beta
    g[0] = beta

    def solution(j):
        # the transpose's lower triangle, read row-major, is the upper
        # triangle packed column by column
        packed = H[: j + 1, : j + 1].T[np.tri(j + 1, dtype=bool)]
        y = dtpsv(j + 1, packed, g[: j + 1])
        dense = np.linalg.solve(np.triu(H[: j + 1, : j + 1]), g[: j + 1])
        assert np.linalg.norm(y - dense) <= 1e-10 * np.linalg.norm(dense)
        return apply_m(Q[: j + 1].T @ y)

    for j in range(maxiter):
        w = np.array(apply_op(apply_m(Q[j])), dtype=float)
        h = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ h
        h2 = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ h2
        h += h2
        H[: j + 1, j] = h
        hnext = np.linalg.norm(w)
        H[j + 1, j] = hnext
        for i in range(j):
            hi, hj = H[i, j], H[i + 1, j]
            H[i, j] = cs[i] * hi + sn[i] * hj
            H[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = np.hypot(H[j, j], H[j + 1, j])
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        est = abs(g[j + 1]) / beta
        report.residual_history.append(est)
        true_res = None
        if (j + 1) % 10 == 0:
            true_res = np.linalg.norm(b - apply_op(solution(j))) / beta
            report.true_residuals.append((j + 1, true_res))
        if log is not None:
            log(j + 1, est, true_res)
        if est <= cfg.tol:
            report.iterations = j + 1
            report.converged = True
            if keep_basis:
                report.basis = Q[: j + 1].copy()
            return solution(j), report
        Q[j + 1] = w / hnext
    report.iterations = maxiter
    if keep_basis:
        report.basis = Q[: maxiter + 1].copy()
    return solution(maxiter - 1), report


class DiagonalScaling:
    def __init__(self, d):
        self.d = d

    def apply(self, r):
        return r / self.d


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("case", ["converged", "maxiter", "keep_basis"])
def test_bookkeeping_is_bitwise_equal_to_dense_solves(rng, case):
    # a slowly converging system, so that both the rotations and the
    # triangular solves of late iterations carry rounding that shows
    n = 160
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 1.3 * np.eye(n)
    b = rng.standard_normal(n)
    M = DiagonalScaling(rng.uniform(1.0, 3.0, n))
    cfg = {"converged": GmresConfig(tol=1e-12, maxiter=n),
           "maxiter": GmresConfig(tol=1e-300, maxiter=47),
           "keep_basis": GmresConfig(tol=1e-12, maxiter=n)}[case]
    keep = case == "keep_basis"
    runs = []
    for solver in (gmres, _dense_bookkeeping_gmres):
        lines = []
        x, report = solver(MatrixOp(A), b, M, cfg,
                           log=lambda *a: lines.append(a), keep_basis=keep)
        runs.append((x, report, lines))
    (x, report, lines), (x0, report0, lines0) = runs
    assert report.converged == (case != "maxiter")
    assert report.iterations == report0.iterations >= 40
    assert _bits(report.residual_history) == _bits(report0.residual_history)
    assert _bits(report.true_residuals) == _bits(report0.true_residuals)
    assert lines == lines0
    assert _bits(x) == _bits(x0)
    if keep:
        assert _bits(report.basis) == _bits(report0.basis)


# -- properties on random diagonally dominant systems -------------------------

@st.composite
def dominant_systems(draw):
    """A strictly row-diagonally dominant A (diagonal signs random) and b."""
    n = draw(st.integers(2, 40))
    margin = draw(st.floats(0.05, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    np.fill_diagonal(A, 0.0)
    signs = rng.choice([-1.0, 1.0], n)
    A += np.diag(signs * (np.abs(A).sum(axis=1) + margin))
    return A, rng.standard_normal(n)


@settings(max_examples=40)
@given(dominant_systems())
def test_property_residual_estimate_never_increases(system):
    A, b = system
    _, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-10,
                                                      maxiter=len(b)))
    assert report.converged
    history = report.residual_history
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))


@settings(max_examples=40)
@given(dominant_systems(), st.integers(1, 12))
def test_property_unconverged_iterate_is_krylov_least_squares(system, k):
    A, b = system
    k = min(k, len(b) - 1)
    x, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-300, maxiter=k),
                      keep_basis=True)
    assert not report.converged and report.iterations == k
    Qk = report.basis[:k]
    z = np.linalg.lstsq(A @ Qk.T, b, rcond=None)[0]
    x_ls = Qk.T @ z
    assert np.linalg.norm(x - x_ls) <= 1e-8 * np.linalg.norm(x_ls)


@settings(max_examples=40)
@given(dominant_systems(), st.floats(-12.0, 12.0))
def test_property_iteration_count_is_scale_invariant(system, log10_c):
    A, b = system
    cfg = GmresConfig(tol=1e-10, maxiter=len(b))
    _, report = gmres(MatrixOp(A), b, cfg=cfg)
    _, scaled = gmres(MatrixOp(10.0**log10_c * A), b, cfg=cfg)
    assert scaled.converged and report.converged
    assert scaled.iterations == report.iterations


# -- the defect-row basis of mf and block ---------------------------------------

def solve_system(preset, k, n_slabs):
    s = make_system(preset, k=k, q=k, kstar=k, qstar=k, n_slabs=n_slabs,
                    n_elems=2 * n_slabs)
    return s, s.assemble_rhs(PRESETS[preset].u)


@pytest.mark.parametrize("kind", ["mf", "block"])
@pytest.mark.parametrize("preset, k, n_slabs",
                         [("gcc1d", 1, 6), ("nogcc1d", 2, 4)])
def test_defect_row_basis_matches_the_full_path(preset, k, n_slabs, kind):
    s, b = solve_system(preset, k, n_slabs)
    M = build_preconditioner(s, kind)
    cfg = GmresConfig(tol=1e-7, maxiter=3000)
    x, report = gmres(s.apply, b, M, cfg)
    x_full, full = gmres(s.apply, b, ApplyOnly(M), cfg)
    assert report.converged and full.converged
    assert abs(report.iterations - full.iterations) <= 1
    assert np.linalg.norm(x - x_full) <= 1e-6 * np.linalg.norm(x_full)
    assert np.linalg.norm(b - s.apply(x)) <= 10 * cfg.tol * np.linalg.norm(b)


@pytest.mark.parametrize("kind", ["mf", "block"])
def test_defect_row_basis_is_orthonormal(kind):
    s, b = solve_system("gcc1d", 1, 6)
    M = build_preconditioner(s, kind)
    _, report = gmres(s.apply, b, M, keep_basis=True)
    Q = report.basis
    assert Q.shape == (report.iterations, s.ndof)
    assert np.abs(Q @ Q.T - np.eye(len(Q))).max() <= 1e-8
    # every basis vector lies in span{b} + the defect rows
    off = np.ones(s.ndof, dtype=bool)
    off[M.defect.rows] = False
    b_off = b[off] / np.linalg.norm(b[off])
    assert np.abs(Q[:, off] - np.outer(Q[:, off] @ b_off, b_off)).max() <= 1e-14


def test_defect_row_basis_needs_no_operator_apply_in_arnoldi():
    s, b = solve_system("gcc1d", 1, 6)
    calls = []
    apply = s.apply

    def counted(v):
        calls.append(1)
        return apply(v)

    # the system's own apply, counted: the split path is still taken
    s.apply = counted
    M = build_preconditioner(s, "mf")
    _, report = gmres(s.apply, b, M)
    assert report.converged
    assert len(calls) == len(report.true_residuals) < report.iterations


@pytest.mark.parametrize("preset, k, n_slabs, kind, off_rows", [
    pytest.param("gcc1d", 1, 6, "block", True, id="b-off-rows-block"),
    pytest.param("gcc1d", 1, 6, "mf", True, id="b-off-rows-mf"),
    pytest.param("gcc1d", 1, 6, "block", False, id="b-on-rows-block"),
    pytest.param("gcc1d", 1, 6, "mf", False, id="b-on-rows-mf"),
    # converges on iteration 30, a true-residual check
    pytest.param("nogcc1d", 2, 4, "mf", True, id="b-off-rows-mf-on-check"),
])
def test_defect_row_basis_applies_m_only_outside_arnoldi(
        preset, k, n_slabs, kind, off_rows, rng):
    # M is applied at the true-residual checks, for the returned iterate
    # unless the last check computed it and, when b has a part off the
    # defect rows, once for E M of that part
    s, b = solve_system(preset, k, n_slabs)
    M = build_preconditioner(s, kind)
    off = np.ones(s.ndof, dtype=bool)
    off[M.defect.rows] = False
    if not off_rows:
        b = np.zeros(s.ndof)
        b[M.defect.rows] = rng.standard_normal(len(M.defect.rows))
    assert np.any(b[off] != 0) == off_rows
    calls = []
    apply = M.apply

    def counted(r):
        calls.append(1)
        return apply(r)

    M.apply = counted
    _, report = gmres(s.apply, b, M)
    assert report.converged and report.iterations > 20
    on_check = report.iterations % 10 == 0
    assert on_check == (preset == "nogcc1d")
    assert len(calls) == len(report.true_residuals) + (not on_check) + off_rows


@pytest.mark.parametrize("kind", ["mf", "block"])
def test_rhs_on_the_defect_rows_only(kind, rng):
    # b' = 0: the basis has no coordinate along b', only the defect rows
    s, _ = solve_system("gcc1d", 1, 6)
    M = build_preconditioner(s, kind)
    b = np.zeros(s.ndof)
    b[M.defect.rows] = rng.standard_normal(len(M.defect.rows))
    cfg = GmresConfig(tol=1e-7, maxiter=3000)
    x, report = gmres(s.apply, b, M, cfg, keep_basis=True)
    x_full, full = gmres(s.apply, b, ApplyOnly(M), cfg)
    assert report.converged
    assert abs(report.iterations - full.iterations) <= 1
    assert np.linalg.norm(x - x_full) <= 1e-6 * np.linalg.norm(x_full)
    assert np.linalg.norm(b - s.apply(x)) <= 10 * cfg.tol * np.linalg.norm(b)
    off = np.ones(s.ndof, dtype=bool)
    off[M.defect.rows] = False
    assert np.all(report.basis[:, off] == 0)


def test_scaled_operator_takes_the_full_path():
    s, b = solve_system("gcc1d", 1, 6)
    M = build_preconditioner(s, "mf")
    cfg = GmresConfig(tol=1e-9, maxiter=3000)
    x, _ = gmres(s.apply, b, M, cfg)
    x2, report = gmres(lambda v: 2 * s.apply(v), b, M, cfg)
    assert report.converged
    assert np.linalg.norm(2 * x2 - x) <= 1e-6 * np.linalg.norm(x)


# -- an honest exit on the solver's own systems ---------------------------------

HONEST_TOL = 1e-7


@settings(max_examples=25)
@given(st.sampled_from(["gcc1d", "nogcc1d"]), st.integers(1, 2),
       st.integers(1, 2), st.integers(1, 4),
       st.sampled_from(["mf", "ml", "block", "dfb", "none"]), st.data())
def test_property_converged_means_the_true_residual_meets_tol(
        preset, k, q, n_slabs, kind, data):
    # dual orders at most the primal ones; dfb needs them equal
    if kind == "dfb":
        kstar, qstar = k, q
    else:
        kstar = data.draw(st.integers(1, k), label="kstar")
        qstar = data.draw(st.integers(0, q), label="qstar")
    s = make_system(preset, k=k, q=q, kstar=kstar, qstar=qstar,
                    n_slabs=n_slabs, n_elems=4 * n_slabs)
    b = s.assemble_rhs(PRESETS[preset].u)
    x, report = gmres(s.apply, b, build_preconditioner(s, kind),
                      GmresConfig(tol=HONEST_TOL, maxiter=300))
    # an unconverged exit claims nothing
    if report.converged:
        true = np.linalg.norm(b - s.apply(x)) / np.linalg.norm(b)
        assert true <= 10 * HONEST_TOL
