"""Median times of a solve's set-up phases and of the layers that one
GMRes iteration and one solve's post-processing run, for each solve
configuration of the benchmark.

    PYTHONPATH=src python3 tools/layer_times.py [--calls 30] [KEY ...]

For every solve of the workloads in perfbench/bench.py it prints the median
over --calls calls, in ms, of:

- init, rhs, pc: the set-up phases, SpaceTimeSystem(config),
  assemble_rhs and build_preconditioner;
- step: what one Arnoldi step applies before it orthogonalizes, as gmres
  runs it: defect.em(v) on the defect rows for mf and block, A(M(v)) on
  the whole vector for ml, dfb and none; em_first is the first em call,
  which builds the trace blocks ("-" without a defect);
- M: one preconditioner apply ("-" for none);
- A: one operator apply;
- norms: one error_norms call on the lifted primal part of a random vector,
  over the preset's restricted region where it has one;

and, on the first line, the thread count of the OpenBLAS that numpy loaded.
Every input is drawn from a fixed seed.  KEY arguments keep only the
configurations whose key (for example gcc1d-k2-N48-mf) contains one of them.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from waveuc.config import PRESETS
from waveuc.postproc import error_norms, extract_primal_field, lift
from waveuc.precond import build_preconditioner
from waveuc.spacetime_system import SpaceTimeSystem

# the benchmark's workloads and its OpenBLAS thread-count getter
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from bench import WORKLOADS  # noqa: E402
from run import blas_threads  # noqa: E402

COLUMNS = ("key", "ndof", "init", "rhs", "pc", "em_first", "step", "M", "A",
           "norms")


def median_ms(call, arg, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_times(solve, calls):
    preset, cfg = PRESETS[solve.preset], solve.config()
    s = SpaceTimeSystem(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(s.ndof)
    M = build_preconditioner(s, solve.precond)
    row = {"key": solve.key, "ndof": s.ndof,
           "init": median_ms(SpaceTimeSystem, cfg, calls),
           "rhs": median_ms(s.assemble_rhs, preset.u, calls),
           "pc": median_ms(lambda kind: build_preconditioner(s, kind),
                           solve.precond, calls),
           "em_first": None, "M": None}
    defect = getattr(M, "defect", None)
    if defect is not None:
        v = rng.standard_normal(len(defect.rows))
        row["em_first"] = median_ms(defect.em, v, 1)
        row["step"] = median_ms(defect.em, v, calls)
    else:
        apply_m = (lambda v: v) if M is None else M.apply
        row["step"] = median_ms(lambda v: s.apply(apply_m(v)), x, calls)
    if M is not None:
        row["M"] = median_ms(M.apply, x, calls)
    row["A"] = median_ms(s.apply, x, calls)
    sol = lift(s.primal, extract_primal_field(s, x))
    row["norms"] = median_ms(
        lambda sol: error_norms(preset.u, preset.dt_u, sol,
                                region=preset.restricted_region),
        sol, calls)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="*",
                        help="keep configurations whose key contains one")
    parser.add_argument("--calls", type=int, default=30,
                        help="calls per median (default 30)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    print(f"BLAS threads: {blas_threads(np)}; median of {args.calls} calls, "
          "ms")
    print("".join(f"{c:>10}" if c != "key" else f"{c:<22}" for c in COLUMNS))
    for workload in WORKLOADS.values():
        for solve in workload.solves:
            if args.keys and not any(part in solve.key for part in args.keys):
                continue
            row = layer_times(solve, args.calls)
            cells = [f"{row['key']:<22}", f"{row['ndof']:>10}"]
            cells += ["         -" if row[c] is None else f"{row[c]:>10.3f}"
                      for c in COLUMNS[2:]]
            print("".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
