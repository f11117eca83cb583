"""Workloads, the timed solve pipeline, its correctness gate and the
metrics of one benchmark run.

One solve runs the pipeline of ``waveuc.cli.run_solve``:
``SpaceTimeSystem`` -> ``assemble_rhs`` -> ``build_preconditioner`` ->
``gmres`` -> ``extract_primal_field`` + ``lift`` -> ``error_norms``.  A
sweep runs every solve of a workload once, in an order drawn from the seed.
Each phase runs inside a span (see tracing.py).  A traced sweep also hands
gmres a wrapped operator, a wrapped preconditioner and ``log=tracer.mark``,
so the time inside gmres splits into the Arnoldi operator and
preconditioner calls, the periodic true-residual checks and gmres' own work
(Gram-Schmidt, Givens rotations, the small triangular solves).

Everything the gate checks (the true residual at exit, the error norms
against their references, the convergence rates) is computed after the
sweep, outside its span.
"""

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from waveuc.cli import run_solve
from waveuc.config import PRESETS
from waveuc.krylov import GmresConfig, gmres
from waveuc.postproc import eoc, error_norms, extract_primal_field, lift
from waveuc.precond import build_preconditioner
from waveuc.spacetime_system import SpaceTimeSystem

from tracing import Tracer, group_repeats, layer_of, self_times

TOL = 1e-7
MAXITER = 3000
# a solve whose true residual at exit exceeds this multiple of tol failed,
# whatever gmres reported
TRUE_RESIDUAL_FACTOR = 10.0
# relative distance an error norm may keep from its recorded reference;
# the preconditioners of one configuration agree to about 1e-7
ERROR_RTOL = 1e-4
LAYERS = ("spacetime_system", "precond", "krylov", "postproc", "cli")
# per-layer metrics that partition a traced sweep's wall time
SELF_METRICS = ("spacetime_system.self_s", "precond.self_s", "krylov.self_s",
                "postproc.self_s", "cli.driver_s", "trace.remainder_s")

# CSV column of waveuc.cli -> ErrorReport field
ERROR_COLUMNS = {
    "err_LinfL2_u": "err_LinfL2_u",
    "err_L2L2_ut": "err_L2L2_ut",
    "err_LinfL2_u_Bt": "err_LinfL2_u_restricted",
    "err_L2L2_ut_Bt": "err_L2L2_ut_restricted",
}


@dataclass(frozen=True)
class Solve:
    """One configuration: k = q = kstar = qstar, h = dt (n_elems = 2N)."""

    preset: str
    k: int
    n_slabs: int
    precond: str
    maxiter: int = MAXITER

    @property
    def key(self):
        return f"{self.preset}-k{self.k}-N{self.n_slabs}-{self.precond}"

    def config(self):
        return PRESETS[self.preset].make_config(
            k=self.k, q=self.k, kstar=self.k, qstar=self.k,
            n_slabs=self.n_slabs, n_elems=2 * self.n_slabs,
            precond=self.precond, tol=TOL, maxiter=self.maxiter,
        ).validate()


@dataclass(frozen=True)
class Workload:
    name: str
    solves: tuple
    # lowest accepted EOC of err_L2L2_ut between successive levels
    eoc_floor: Optional[float] = None


WORKLOADS = {w.name: w for w in (
    Workload("gcc-k2-mf",
             tuple(Solve("gcc1d", 2, n, "mf") for n in (12, 24, 48)),
             eoc_floor=1.8),
    Workload("nogcc-k1-mf",
             tuple(Solve("nogcc1d", 1, n, "mf") for n in (8, 16, 32))),
    Workload("gcc-k1-precond",
             tuple(Solve("gcc1d", 1, 16, p)
                   for p in ("mf", "ml", "block", "dfb"))),
)}


@dataclass
class Outcome:
    """Everything the pipeline produced for one solve, kept until the
    sweep ends so that checking it stays outside the timed region."""

    solve: Solve
    system: object
    b: np.ndarray
    x: np.ndarray
    report: object
    errors: dict


@dataclass
class SolveResult:
    key: str
    n_slabs: int
    ndof: int
    iters: int
    converged: bool
    true_residual: float
    est_true_ratio: float
    errors: dict
    failures: list = field(default_factory=list)


class _TracedPrecond:
    def __init__(self, tracer, precond, name):
        self.tracer, self.precond, self.name = tracer, precond, name

    def apply(self, r):
        with self.tracer.span(self.name):
            return self.precond.apply(r)


def _build(solve, tracer):
    cfg = solve.config()
    preset = PRESETS[solve.preset]
    with tracer.span("spacetime_system.init"):
        system = SpaceTimeSystem(cfg)
    with tracer.span("spacetime_system.rhs"):
        b = system.assemble_rhs(preset.u)
    with tracer.span(f"precond.build.{cfg.precond}"):
        precond = build_preconditioner(system, cfg.precond)
    return cfg, preset, system, b, precond


def run_pipeline(solve, tracer, solve_id, traced=False):
    """One solve, phase by phase, under a ``cli.solve`` span."""
    tracer.solve = solve_id
    with tracer.span("cli.solve"):
        cfg, preset, system, b, precond = _build(solve, tracer)
        gcfg = GmresConfig(cfg.tol, cfg.maxiter)
        with tracer.span("krylov.gmres"):
            if traced:
                def apply_op(v):
                    with tracer.span("spacetime_system.apply"):
                        return system.apply(v)
                x, report = gmres(
                    apply_op, b,
                    _TracedPrecond(tracer, precond, f"precond.apply.{cfg.precond}"),
                    gcfg, log=tracer.mark)
            else:
                x, report = gmres(system.apply, b, precond, gcfg)
        with tracer.span("postproc.lift"):
            lifted = lift(system.primal, extract_primal_field(system, x))
        with tracer.span("postproc.errors"):
            err = error_norms(preset.u, preset.dt_u, lifted,
                              region=preset.restricted_region)
    tracer.solve = None
    errors = {col: getattr(err, attr) for col, attr in ERROR_COLUMNS.items()
              if getattr(err, attr) is not None}
    return Outcome(solve, system, b, x, report, errors)


def check(outcome, references):
    """The gate: converged flag, the benchmark's own relative true residual
    at exit, and each error norm against its recorded reference."""
    o = outcome
    report = o.report
    true_res = float(np.linalg.norm(o.b - o.system.apply(o.x))
                     / np.linalg.norm(o.b))
    est = report.residual_history
    pairs = list(report.true_residuals) + [(report.iterations, true_res)]
    ratio = max(t / est[it - 1] for it, t in pairs if est[it - 1] > 0.0)
    res = SolveResult(o.solve.key, o.solve.n_slabs, o.system.ndof,
                      report.iterations, report.converged, true_res, ratio,
                      o.errors)
    if not report.converged:
        res.failures.append(f"unconverged after {report.iterations} iterations")
    if not true_res <= TRUE_RESIDUAL_FACTOR * TOL:
        res.failures.append(
            f"true residual {true_res:.3e} > {TRUE_RESIDUAL_FACTOR:g}*tol")
    ref = references.get(o.solve.key)
    if ref is None:
        res.failures.append("no reference recorded")
    else:
        for col, value in o.errors.items():
            if not math.isclose(value, ref["errors"][col], rel_tol=ERROR_RTOL):
                res.failures.append(
                    f"{col} {value:.6e} vs reference {ref['errors'][col]:.6e}")
    return res


def check_eoc(workload, results):
    """Mark the finer level failed where the err_L2L2_ut rate between two
    successive levels falls below the workload's floor."""
    if workload.eoc_floor is None:
        return
    levels = sorted(results, key=lambda r: r.n_slabs)
    rates = eoc([r.errors["err_L2L2_ut"] for r in levels])
    for finer, rate in zip(levels[1:], rates):
        if not rate >= workload.eoc_floor:
            finer.failures.append(
                f"eoc(err_L2L2_ut) {rate:.2f} < {workload.eoc_floor}")


@dataclass
class Sweep:
    tracer: Tracer
    root: int
    results: list
    traced: bool

    def total(self, prefix):
        """Summed duration and count of spans named prefix or prefix.*"""
        spans = [s for s in self.tracer.spans
                 if s.name == prefix or s.name.startswith(prefix + ".")]
        return sum(s.duration for s in spans), len(spans)

    @property
    def wall(self):
        return self.tracer.spans[self.root].duration

    @property
    def gmres(self):
        return self.total("krylov.gmres")[0]


class Runner:
    """Runs sweeps of one workload and turns them into metrics."""

    def __init__(self, workload, seed, references):
        self.workload = workload
        self.references = references
        self.rng = random.Random(seed)
        self.next_id = 0

    def sweep(self, traced=False):
        tracer = Tracer()
        order = self.rng.sample(self.workload.solves, len(self.workload.solves))
        outcomes = []
        with tracer.span("bench.sweep") as root:
            for solve in order:
                outcomes.append(run_pipeline(solve, tracer, self.next_id, traced))
                self.next_id += 1
        group_repeats(tracer, "krylov.true_check")
        results = [check(o, self.references) for o in outcomes]
        check_eoc(self.workload, results)
        return Sweep(tracer, root, results, traced)

    def setup_pass(self):
        """Set-up phases only, for every solve of the workload."""
        tracer = Tracer()
        t0 = time.perf_counter()
        for solve in self.workload.solves:
            _build(solve, tracer)
        return time.perf_counter() - t0

    def warm_up_and_compare(self):
        """Drive the workload's first configuration once (the warm-up
        solve), then solve it with waveuc.cli.run_solve; return the
        mismatches between the two."""
        solve = self.workload.solves[0]
        mine = run_pipeline(solve, Tracer(), -1)
        row, report, _ = run_solve(solve.config(), PRESETS[solve.preset])
        diffs = []
        if (report.iterations, report.converged) != (
                mine.report.iterations, mine.report.converged):
            diffs.append(f"iters/converged {report.iterations}/"
                         f"{report.converged} vs {mine.report.iterations}/"
                         f"{mine.report.converged}")
        for col in ERROR_COLUMNS:
            cli_val = float(row[col]) if row[col] else None
            ours = mine.errors.get(col)
            if (cli_val is None) != (ours is None) or (
                    ours is not None
                    and not math.isclose(cli_val, ours, rel_tol=1e-9)):
                diffs.append(f"{col} {row[col]!r} vs {ours!r}")
        return diffs


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(sweeps, setup_samples):
    solved = [r for s in sweeps for r in s.results]
    passed = sum(not r.failures for r in solved)
    return {
        "wall_s": statistics.median(s.wall for s in sweeps),
        "setup_s": statistics.median(setup_samples),
        "solve_s": statistics.median(s.gmres for s in sweeps),
        "peak_rss_mb": peak_rss_mb(),
        "passed_share": passed / len(solved),
    }


def layer_split(sweep, untraced_wall):
    """Per-layer metrics of one traced sweep; those in SELF_METRICS add up
    to trace.wall_s."""
    spans = sweep.tracer.spans
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for s, t in zip(spans, own):
        layer_self[layer_of(s.name)] += t
    results = sweep.results
    iters = sum(r.iters for r in results)
    apply_s, apply_n = sweep.total("spacetime_system.apply")
    papply_s, papply_n = sweep.total("precond.apply")
    mf_s, mf_n = sweep.total("precond.apply.mf")
    return {
        "spacetime_system.init_s": sweep.total("spacetime_system.init")[0],
        "spacetime_system.rhs_s": sweep.total("spacetime_system.rhs")[0],
        "spacetime_system.apply_s": apply_s,
        "spacetime_system.apply_calls": apply_n,
        "spacetime_system.apply_ms": 1e3 * apply_s / apply_n,
        "spacetime_system.self_s": layer_self["spacetime_system"],
        "precond.build_s": sweep.total("precond.build")[0],
        "precond.build_s.mf": sweep.total("precond.build.mf")[0],
        "precond.apply_s": papply_s,
        "precond.apply_calls": papply_n,
        "precond.apply_ms": 1e3 * papply_s / papply_n,
        "precond.apply_ms.mf": 1e3 * mf_s / mf_n,
        "precond.self_s": layer_self["precond"],
        "krylov.self_s": layer_self["krylov"],
        "krylov.self_ms_per_iter": 1e3 * layer_self["krylov"] / iters,
        "krylov.true_check_s": sweep.total("krylov.true_check")[0],
        "krylov.iters": iters,
        "krylov.true_residual_exit": max(r.true_residual for r in results),
        "krylov.est_true_ratio_max": max(r.est_true_ratio for r in results),
        "krylov.basis_mb_computed": max(
            (r.iters + 1) * r.ndof * 8 for r in results) / 2**20,
        "postproc.lift_s": sweep.total("postproc.lift")[0],
        "postproc.errors_s": sweep.total("postproc.errors")[0],
        "postproc.self_s": layer_self["postproc"],
        "cli.driver_s": layer_self["cli"],
        "trace.wall_s": sweep.wall,
        "trace.remainder_s": layer_self["bench"],
        "trace.overhead_s": sweep.wall - untraced_wall,
    }


def median_sweep(sweeps):
    """The sweep with the median wall time (the lower one of an even
    count), so its layer split sums to a wall time actually measured."""
    ranked = sorted(sweeps, key=lambda s: s.wall)
    return ranked[(len(ranked) - 1) // 2]
