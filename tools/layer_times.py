"""Median times of a solve's set-up phases and of the layers that one
GMRes iteration and one solve's post-processing run, for each solve
configuration of the benchmark.

    PYTHONPATH=src python3 tools/layer_times.py [--calls 30] [KEY ...]
    PYTHONPATH=src python3 tools/layer_times.py --base TREE [--calls 30]
        [--json BENCH.json] [KEY ...]

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

and, on the first line, the thread counts of the OpenBLAS libraries that
numpy and scipy loaded (each has its own).
Every input is drawn from a fixed seed.  KEY arguments keep only the
configurations whose key (for example gcc1d-k2-N48-mf) contains one of them
as whole dash-separated fields: N48 keeps every N = 48 solve, and a full
key keeps only itself (gcc1d-k1-N16-mf, not nogcc1d-k1-N16-mf).

With --base TREE it compares two trees in one process instead, since
timings from separate processes cannot be compared on a host whose speed
changes between them.  It loads TREE/src/waveuc under a second module name
and, for the A/A floor, once more under a third, beside the waveuc on
PYTHONPATH (the change).  For every configuration it times the set-up
phases init, rhs and pc of the three in ROUNDS = 10 rounds, each phase of each
tree a median over --calls calls, and reverses the trees' order from one
round to the next, so that each goes first as often as the other.  It
prints for each phase the base tree's median in ms and the median over the
rounds of the per-round ratios change/base and base again/base (the A/A
floor), with their quartiles over the rounds in brackets.  A ratio below 1
is a faster change; one whose quartiles overlap the A/A floor's is not
told apart from the host.  --json PATH also writes that table to PATH, with
both BLAS thread counts, nproc and the load average before and after the
rounds (schema in README.md).
"""

import argparse
import ctypes
import importlib.util
import json
import os
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import waveuc
from waveuc.config import PRESETS
from waveuc.postproc import error_norms, extract_primal_field, lift
from waveuc.precond import build_preconditioner
from waveuc.spacetime_system import SpaceTimeSystem

# the benchmark's workloads and the OpenBLAS thread-count getters
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from bench import WORKLOADS  # noqa: E402
from run import BLAS_THREAD_SYMBOLS  # noqa: E402

COLUMNS = ("key", "ndof", "init", "rhs", "pc", "em_first", "step", "M", "A",
           "norms")
SETUP_PHASES = ("init", "rhs", "pc")
ROUNDS = 10


def blas_threads(module):
    """Thread count of the OpenBLAS shipped in the <module>.libs directory
    beside the module's package, or None."""
    package = Path(module.__file__).resolve().parent
    for path in sorted(package.parent.glob(f"{package.name}.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in BLAS_THREAD_SYMBOLS:
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment():
    """Both BLAS thread counts and the CPUs this process may run on."""
    return {"blas_threads_numpy": blas_threads(np),
            "blas_threads_scipy": blas_threads(scipy),
            "nproc": len(os.sched_getaffinity(0))}


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


def load_tree(tree, name):
    """The waveuc package of the checkout tree (tree/src/waveuc), loaded as
    the module name; its submodules, which import each other relatively,
    load as name.<submodule>."""
    package = Path(tree).resolve() / "src" / "waveuc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def setup_phases(tree, solve):
    """The set-up phases of solve on the loaded package tree, as phase ->
    (call, argument), each call as run_solve makes it."""
    cfg = tree.DiscretizationConfig(**asdict(solve.config()))
    s = tree.SpaceTimeSystem(cfg)
    return {"init": (tree.SpaceTimeSystem, cfg),
            "rhs": (s.assemble_rhs, tree.PRESETS[solve.preset].u),
            "pc": (lambda kind: tree.build_preconditioner(s, kind),
                   solve.precond)}


def compare_trees(solve, trees, calls):
    """Per set-up phase, the median ms of trees[0] and, for each later tree,
    the quartiles over rounds of its per-round ratio to trees[0]."""
    phases = [setup_phases(tree, solve) for tree in trees]
    ms = {phase: [[] for _ in trees] for phase in SETUP_PHASES}
    for round_ in range(ROUNDS):
        order = range(len(trees))
        for phase in SETUP_PHASES:
            for i in order if round_ % 2 == 0 else reversed(order):
                call, arg = phases[i][phase]
                ms[phase][i].append(median_ms(call, arg, calls))
    return {phase: (statistics.median(times[0]),
                    [np.percentile(np.divide(other, times[0]), [25, 50, 75])
                     for other in times[1:]])
            for phase, times in ms.items()}


def print_comparison(solves, base, calls, json_path=None):
    trees = [load_tree(base, "waveuc_base"), waveuc,
             load_tree(base, "waveuc_base_again")]
    env = environment()
    print(f"BLAS threads: numpy {env['blas_threads_numpy']}, scipy "
          f"{env['blas_threads_scipy']}; {ROUNDS} rounds of {calls}-call "
          f"medians; base {base}; ratio median [quartiles] over rounds")
    print(f"{'key':<22}{'phase':>6}{'base ms':>10}"
          f"{'change/base':>27}{'A/A':>27}")
    env["load_average_before"] = os.getloadavg()
    table = []
    for solve in solves:
        phases = {}
        for phase, (base_ms, ratios) in compare_trees(
                solve, trees, calls).items():
            line = f"{solve.key:<22}{phase:>6}{base_ms:>10.3f}"
            for q1, median, q3 in ratios:
                line += f"{f'{median:.3f} [{q1:.3f}, {q3:.3f}]':>27}"
            print(line, flush=True)
            (change, aa) = ({"median": median, "q1": q1, "q3": q3}
                            for q1, median, q3 in ratios)
            phases[phase] = {"base_ms": base_ms, "change_over_base": change,
                             "aa": aa}
        table.append({"key": solve.key, "phases": phases})
    env["load_average_after"] = os.getloadavg()
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump({"base": Path(base).resolve().name, "rounds": ROUNDS,
                       "calls": calls, "environment": env,
                       "configurations": table}, fh, indent=1)
            fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="*",
                        help="keep configurations whose key contains one "
                             "as whole dash-separated fields")
    parser.add_argument("--calls", type=int, default=30,
                        help="calls per median (default 30)")
    parser.add_argument("--base", metavar="TREE",
                        help="compare the set-up phases with the checkout "
                             "TREE in one process")
    parser.add_argument("--json", metavar="PATH",
                        help="with --base, also write the table to PATH")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    if args.json is not None and args.base is None:
        parser.error("--json needs --base")
    solves = [solve for workload in WORKLOADS.values()
              for solve in workload.solves
              if not args.keys
              or any(f"-{part}-" in f"-{solve.key}-" for part in args.keys)]
    if args.base is not None:
        print_comparison(solves, args.base, args.calls, args.json)
        return 0
    env = environment()
    print(f"BLAS threads: numpy {env['blas_threads_numpy']}, scipy "
          f"{env['blas_threads_scipy']}; median of {args.calls} calls, ms")
    print("".join(f"{c:>10}" if c != "key" else f"{c:<22}" for c in COLUMNS))
    for solve in solves:
        row = layer_times(solve, args.calls)
        cells = [f"{row['key']:<22}", f"{row['ndof']:>10}"]
        cells += ["         -" if row[c] is None else f"{row[c]:>10.3f}"
                  for c in COLUMNS[2:]]
        print("".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
