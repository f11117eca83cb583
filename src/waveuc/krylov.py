"""Non-restarted GMRes with right preconditioning and residual logging."""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg.blas import dtpsv

__all__ = ["GmresConfig", "SolveReport", "GmresBreakdown", "Identity", "gmres"]

# Arnoldi breaks down when ||w|| after orthogonalization falls to this
# fraction of ||A M q_j|| before it
BREAKDOWN_TOL = 1e-14
TRUE_RESIDUAL_EVERY = 10


class GmresBreakdown(RuntimeError):
    """Arnoldi produced a (numerically) zero vector before convergence."""


class Identity:
    """No preconditioning, M = I: apply returns its argument.  It takes a
    system, like every preconditioner kind, and ignores it."""

    def __init__(self, system=None):
        pass

    def apply(self, r):
        return r


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
    # built Arnoldi basis, rows = basis vectors; only kept on request
    basis: Optional[np.ndarray] = None


def gmres(apply_op, b, precond=Identity(), cfg: Optional[GmresConfig] = None,
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
    from a back substitution with the rotated triangle, in the packed form
    it is kept in (BLAS ``tpsv``).

    Arnoldi breaks down when the orthogonalized vector is tiny relative to
    ``A M q_j`` itself, so the test does not depend on the operator's scale;
    on the last iteration the space allows, which needs no further basis
    vector, the solve then ends unconverged instead.  A non-finite vector
    breaks down at once, and a right-hand side with a non-finite norm is
    refused before the basis is reserved.

    precond has ``apply(r)``, the action of M; it is the identity by
    default.  If it also has a ``defect``, with ``defect.system.apply`` being
    apply_op, it inverts apply_op up to terms on the rows ``defect.rows``
    (see ``_coordinates``): the basis is then stored and orthogonalized on
    span{b} plus those rows only, and the Arnoldi step applies neither
    apply_op nor M.  The true-residual checks and the returned iterate
    still apply M and apply_op in full.

    log, if given, is called with (iteration, arnoldi_residual,
    true_residual_or_None) once per iteration.
    """
    cfg = (cfg or GmresConfig()).validate()

    report = SolveReport()
    n = len(b)
    beta = np.linalg.norm(b)
    if not math.isfinite(beta):
        raise ValueError(f"right-hand side has a non-finite norm ({beta})")
    if beta == 0.0:
        report.converged = True
        return np.zeros(n), report

    m, expand, step, q0 = _coordinates(apply_op, precond, b, beta)
    maxiter = min(cfg.maxiter, m)
    # the whole basis is reserved at once: the operating system commits its
    # rows to memory only when they are first written, so a run that
    # converges early costs only the rows it built, and a basis larger than
    # the system will reserve fails here, before the solve starts
    Q = np.empty((maxiter + 1, m))
    # the rotated Hessenberg columns, packed: column j holds its j + 1
    # entries above the (zeroed) subdiagonal at offset j (j + 1) / 2, so
    # the entries written lie side by side, like Q's rows
    H = np.empty(maxiter * (maxiter + 1) // 2)
    g = np.zeros(maxiter + 1)
    # rotation cosines and sines as Python floats
    cs = []
    sn = []

    Q[0] = q0
    built = 1  # rows of Q written
    g[0] = beta

    def solution(j):
        # back substitution with the rotated triangle of the first j + 1
        # columns, which are its packed upper entries column by column
        y = dtpsv(j + 1, H[: (j + 1) * (j + 2) // 2], g[: j + 1])
        return precond.apply(expand(Q[: j + 1].T @ y))

    for j in range(maxiter):
        w = step(Q[j])
        wnorm = np.linalg.norm(w)
        # classical Gram-Schmidt, then one full reorthogonalization pass (CGS2)
        h = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ h
        h2 = Q[: j + 1] @ w
        w -= Q[: j + 1].T @ h2
        h += h2
        hnext = np.linalg.norm(w)

        # apply the previous rotations to the new column in one pass,
        # carrying the entry that rotation i leaves for rotation i + 1,
        # then annihilate its subdiagonal entry; the column goes into H in
        # one write
        h = h.tolist()
        col = []
        hi = h[0]
        for c, s, hj in zip(cs, sn, h[1:]):
            col.append(c * hi + s * hj)
            hi = -s * hi + c * hj
        # a NumPy scalar, so that 0/0 (a zero column) gives nan and reaches
        # the breakdown test below instead of raising ZeroDivisionError
        denom = np.hypot(hi, hnext)
        cs.append(float(hi / denom))
        sn.append(float(hnext / denom))
        col.append(denom)
        H[j * (j + 1) // 2 : (j + 1) * (j + 2) // 2] = col
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        est = abs(g[j + 1]) / beta
        report.residual_history.append(est)
        x = true_res = None
        if (j + 1) % TRUE_RESIDUAL_EVERY == 0:
            x = solution(j)
            true_res = np.linalg.norm(b - apply_op(x)) / beta
            report.true_residuals.append((j + 1, true_res))
        if log is not None:
            log(j + 1, est, true_res)

        if est <= cfg.tol:
            report.converged = True
            break
        # written so that nan breaks down too; the last iteration needs no
        # further basis vector, so only a non-finite est breaks down there
        if not hnext > BREAKDOWN_TOL * wnorm:
            if j + 1 == maxiter and math.isfinite(est):
                break
            raise GmresBreakdown(
                f"Arnoldi breakdown at iteration {j + 1} with residual "
                f"estimate {est:.3e}"
            )
        Q[j + 1] = w / hnext
        built += 1

    report.iterations = j + 1
    if keep_basis:
        report.basis = _expand_rows(expand, Q[:built])
    # a check iteration has computed the iterate already
    return solution(j) if x is None else x, report


def _coordinates(apply_op, precond, b, beta):
    """The space the Arnoldi basis lives in: (m, expand, step, q0).

    The basis vectors have m coordinates; expand maps coordinates to a
    vector of the system isometrically, step(q) is the coordinates of
    A M expand(q), and q0 those of b / beta.

    On the full path the coordinates are the unknowns themselves.  When
    precond has a defect and apply_op is precond.defect.system.apply,
    precond inverts apply_op up to the defect E = A - M^-1, which is nonzero
    only on the rows S = precond.defect.rows.  Then A M = I + E M, so every
    Krylov vector lies in span{b} + R^S.  Coordinate 0 lies along
    e = b' / |b'|, where b' is b with S zeroed (dropped when b' = 0), the
    others are the rows S, and on S

        step(q) = q + q[0] (E M e) + defect.em(q[lead:]),

    with E M e = defect(M e) from one apply of M per solve and defect.em
    giving E M on S from S alone: the Arnoldi step applies neither A nor
    M, and it orthogonalizes over |S| + 1 instead of len(b) entries.
    """
    defect = getattr(precond, "defect", None)
    if defect is None or apply_op != defect.system.apply:
        def step(q):
            # copy: the operator may hand back (a view of) its input, which
            # must not be clobbered by the orthogonalization
            return np.array(apply_op(precond.apply(q)), dtype=float)

        return len(b), (lambda q: q), step, b / beta

    rows = defect.rows
    b_off = b.copy()
    b_off[rows] = 0.0
    off_norm = np.linalg.norm(b_off)
    lead = 1 if off_norm > 0.0 else 0
    e = b_off / off_norm if lead else None

    def expand(q):
        v = q[0] * e if lead else np.zeros(len(b))
        v[rows] = q[lead:]
        return v

    em_e = defect(precond.apply(e)) if lead else None

    def step(q):
        w = q.copy()
        w[lead:] += defect.em(q[lead:])
        if lead:
            w[lead:] += q[0] * em_e
        return w

    q0 = np.concatenate(([off_norm] if lead else [], b[rows])) / beta
    return len(q0), expand, step, q0


def _expand_rows(expand, Q):
    """The basis rows of Q expanded to vectors of the system."""
    return np.array([expand(q) for q in Q])
