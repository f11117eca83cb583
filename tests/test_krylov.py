import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveuc.krylov import GmresBreakdown, GmresConfig, SolveReport, gmres
from waveuc.precond import MonolithicForward, build_preconditioner

from conftest import make_system


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


# -- bitwise equivalence with the dense-solve bookkeeping ---------------------

def _dense_bookkeeping_gmres(apply_op, b, precond, cfg, log=None,
                             keep_basis=False):
    """gmres with the least-squares bookkeeping done the direct way: Givens
    rotations indexed element by element on NumPy arrays, and every iterate
    from a dense solve with the triangle.  Arnoldi is the same CGS2."""
    apply_m = (lambda v: v) if precond is None else precond.apply
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
        y = np.linalg.solve(np.triu(H[: j + 1, : j + 1]), g[: j + 1])
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


PROPERTY_SETTINGS = settings(max_examples=40, deadline=2000,
                             derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(dominant_systems())
def test_property_residual_estimate_never_increases(system):
    A, b = system
    _, report = gmres(MatrixOp(A), b, cfg=GmresConfig(tol=1e-10,
                                                      maxiter=len(b)))
    assert report.converged
    history = report.residual_history
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))


@PROPERTY_SETTINGS
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


@PROPERTY_SETTINGS
@given(dominant_systems(), st.floats(-12.0, 12.0))
def test_property_iteration_count_is_scale_invariant(system, log10_c):
    A, b = system
    cfg = GmresConfig(tol=1e-10, maxiter=len(b))
    _, report = gmres(MatrixOp(A), b, cfg=cfg)
    _, scaled = gmres(MatrixOp(10.0**log10_c * A), b, cfg=cfg)
    assert scaled.converged and report.converged
    assert scaled.iterations == report.iterations
