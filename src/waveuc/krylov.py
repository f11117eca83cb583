"""Non-restarted GMRes with right preconditioning and residual logging."""

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgetrs

__all__ = ["GmresConfig", "SolveReport", "GmresBreakdown", "gmres"]

# Arnoldi breaks down when ||w|| after orthogonalization falls to this
# fraction of ||A M q_j|| before it
BREAKDOWN_TOL = 1e-14
TRUE_RESIDUAL_EVERY = 10


class GmresBreakdown(RuntimeError):
    """Arnoldi produced a (numerically) zero vector before convergence."""


@dataclass
class GmresConfig:
    tol: float = 1e-7
    maxiter: int = 3000

    def validate(self):
        if not math.isfinite(self.tol) or self.tol <= 0 or self.maxiter < 1:
            raise ValueError("GMRes needs a finite tol > 0 and maxiter >= 1")
        return self


@dataclass
class SolveReport:
    iterations: int = 0
    converged: bool = False
    residual_history: List[float] = field(default_factory=list)
    true_residuals: List[Tuple[int, float]] = field(default_factory=list)
    wall_time: float = 0.0
    # built Arnoldi basis, rows = basis vectors; only kept on request
    basis: Optional[np.ndarray] = None


def gmres(apply_op, b, precond=None, cfg: Optional[GmresConfig] = None,
          log=None, keep_basis=False):
    """Right-preconditioned GMRes for apply_op(x) = b, zero initial guess.

    Because the preconditioner sits on the right, the minimized residual is
    the true residual of the unpreconditioned system, so iteration counts
    are comparable across preconditioners.  The Arnoldi process is classical
    Gram-Schmidt with one full reorthogonalization pass (CGS2); the Arnoldi
    residual estimate is recorded every iteration and the true residual is
    recomputed every few iterations as a consistency check.

    The small least-squares problem is kept in QR form by Givens rotations,
    so iteration j costs O(j) and each iterate O(j^2) besides the basis
    work.  The rotations of each new Hessenberg column run on Python floats,
    which is the same IEEE arithmetic in the same order as on NumPy scalars
    at a fraction of the interpreter cost.  The iterate's coefficients come
    from a back substitution with the rotated triangle: LAPACK ``getrs``
    with identity pivots, which is exactly what a dense LU solve does with
    an upper-triangular matrix whose diagonal is positive (partial pivoting
    swaps no row and L = I), so the coefficients keep that solve's rounding
    bit for bit without its O(j^3) factorization.

    Arnoldi breaks down when the orthogonalized vector is tiny relative to
    ``A M q_j`` itself, so the test does not depend on the operator's scale.

    log, if given, is called with (iteration, arnoldi_residual,
    true_residual_or_None) once per iteration.
    """
    cfg = (cfg or GmresConfig()).validate()
    apply_m = (lambda v: v) if precond is None else precond.apply

    t0 = time.perf_counter()
    report = SolveReport()
    n = len(b)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        report.converged = True
        report.wall_time = time.perf_counter() - t0
        return np.zeros(n), report

    maxiter = min(cfg.maxiter, n)
    # the whole basis is reserved at once: the operating system commits its
    # rows to memory only when they are first written, so a run that
    # converges early costs only the rows it built, and a basis larger than
    # the system will reserve fails here, before the solve starts
    Q = np.empty((maxiter + 1, n))
    H = np.zeros((maxiter + 1, maxiter))
    g = np.zeros(maxiter + 1)
    # rotation cosines and sines as Python floats
    cs = []
    sn = []

    Q[0] = b / beta
    g[0] = beta

    def solution(j):
        # back substitution with the rotated triangle H[:j+1, :j+1]
        y, info = dgetrs(H[: j + 1, : j + 1], np.arange(j + 1), g[: j + 1])
        if info != 0:
            raise ValueError(f"getrs failed with info={info}")
        return apply_m(Q[: j + 1].T @ y)

    j = 0
    for j in range(maxiter):
        # copy: the operator may hand back (a view of) its input, which
        # must not be clobbered by the orthogonalization below
        w = np.array(apply_op(apply_m(Q[j])), dtype=float)
        wnorm = np.linalg.norm(w)
        # classical Gram-Schmidt, then one full reorthogonalization pass (CGS2)
        h = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ h
        h2 = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ h2
        h += h2
        hnext = np.linalg.norm(w)

        # apply the previous rotations to the new column, then annihilate
        # its subdiagonal entry; the column goes back into H in one write
        col = h.tolist() + [hnext]
        for i in range(j):
            hi, hj = col[i], col[i + 1]
            col[i] = cs[i] * hi + sn[i] * hj
            col[i + 1] = -sn[i] * hi + cs[i] * hj
        # a NumPy scalar, so that 0/0 (a zero column) gives nan and reaches
        # the breakdown test below instead of raising ZeroDivisionError
        denom = np.hypot(col[j], col[j + 1])
        cs.append(float(col[j] / denom))
        sn.append(float(col[j + 1] / denom))
        col[j] = denom
        col[j + 1] = 0.0
        H[: j + 2, j] = col
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        est = abs(g[j + 1]) / beta
        report.residual_history.append(est)
        true_res = None
        if (j + 1) % TRUE_RESIDUAL_EVERY == 0:
            x = solution(j)
            true_res = np.linalg.norm(b - apply_op(x)) / beta
            report.true_residuals.append((j + 1, true_res))
        if log is not None:
            log(j + 1, est, true_res)

        if est <= cfg.tol:
            report.iterations = j + 1
            report.converged = True
            report.wall_time = time.perf_counter() - t0
            if keep_basis:
                report.basis = Q[: j + 1].copy()
            return solution(j), report

        if hnext <= BREAKDOWN_TOL * wnorm:
            raise GmresBreakdown(
                f"Arnoldi breakdown at iteration {j + 1} with residual "
                f"estimate {est:.3e}"
            )
        Q[j + 1] = w / hnext

    report.iterations = maxiter
    report.converged = False
    report.wall_time = time.perf_counter() - t0
    if keep_basis:
        report.basis = Q[: maxiter + 1].copy()
    return solution(maxiter - 1), report
