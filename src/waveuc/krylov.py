"""Non-restarted GMRes with right preconditioning and residual logging."""

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["GmresConfig", "SolveReport", "GmresBreakdown", "gmres"]

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
    cs = np.zeros(maxiter)
    sn = np.zeros(maxiter)

    Q[0] = b / beta
    g[0] = beta

    def solution(j):
        y = np.linalg.solve(np.triu(H[: j + 1, : j + 1]), g[: j + 1])
        return apply_m(Q[: j + 1].T @ y)

    j = 0
    for j in range(maxiter):
        # copy: the operator may hand back (a view of) its input, which
        # must not be clobbered by the orthogonalization below
        w = np.array(apply_op(apply_m(Q[j])), dtype=float)
        # classical Gram-Schmidt, then one full reorthogonalization pass (CGS2)
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

        if hnext < BREAKDOWN_TOL:
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
