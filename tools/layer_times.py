"""Median times of every layer of a solve, for each solve configuration of
the benchmark: of one tree, or of a base tree against this one in one
process.

    PYTHONPATH=src python3 tools/layer_times.py [--calls 30]
        [--json BENCH.json] [KEY ...]
    PYTHONPATH=src python3 tools/layer_times.py --base TREE [--calls 30]
        [--json BENCH.json] [KEY ...]

The layers, each timed as the median over --calls calls, in ms:

- init, rhs, pc: the set-up phases, SpaceTimeSystem(config),
  assemble_rhs and build_preconditioner;
- em_first: the first defect.em call of a freshly built preconditioner,
  which builds the trace blocks (mf and block only; the build is not
  timed);
- step: what one Arnoldi step applies before it orthogonalizes, as gmres
  runs it: defect.em(v) on the defect rows for mf and block, A(M(v)) on
  the whole vector for ml, dfb and none;
- M: one preconditioner apply (not for none);
- A: one operator apply;
- norms: one error_norms call on the lifted primal part of a random vector,
  over the preset's restricted region where it has one.

Every input is drawn from a fixed seed.  KEY arguments keep only the
configurations whose key (for example gcc1d-k2-N48-mf) contains one of them
as whole dash-separated fields: N48 keeps every N = 48 solve, and a full
key keeps only itself (gcc1d-k1-N16-mf, not nogcc1d-k1-N16-mf).

Without --base it times the waveuc on PYTHONPATH once.  With --base TREE it
compares two trees in one process, since timings from separate processes
cannot be compared on a host whose speed changes between them.  It loads
TREE/src/waveuc under a second module name and, for the A/A floor, once
more under a third, beside the waveuc on PYTHONPATH (the change), and times
every layer of the three in ROUNDS = 10 rounds, reversing the trees' order
from one round to the next, so that each goes first as often as the other.
For each layer it prints the base tree's median over the rounds in ms, the
median over the rounds of the per-round ratios change/base and base
again/base (the A/A floor) with their quartiles in brackets, and, for the
layers with an output (rhs, step, M, A, norms), "bitwise" if the change's
output on the same inputs holds the base's bytes, else max|a - b| / max|a|
as dump_outputs.py --compare reports it.  A ratio below 1 is a faster
change; one whose quartiles overlap the A/A floor's is not told apart from
the host.

The first line gives the thread counts of the OpenBLAS libraries that numpy
and scipy loaded (each has its own).  --json PATH also writes the table to
PATH, with both BLAS thread counts, nproc and the load average before and
after the timing (schema in README.md).
"""

import argparse
import ctypes
import importlib.util
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, astuple, is_dataclass
from pathlib import Path

import numpy as np
import scipy

import waveuc

# the benchmark's workloads, the OpenBLAS thread-count getters and the
# bitwise dump's size of a difference
TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "perfbench")]
from bench import WORKLOADS  # noqa: E402
from dump_outputs import relative_change  # noqa: E402
from run import BLAS_THREAD_SYMBOLS  # noqa: E402

ROUNDS = 10
OUTPUTS = ("rhs", "step", "M", "A", "norms")


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


def layers(tree, solve):
    """The ndof of solve and its layers on the loaded package tree, in
    order, as name -> (prepare, call): call(prepare()) runs the layer once,
    and only call is timed.  Every tree draws the same inputs."""
    preset = tree.PRESETS[solve.preset]
    cfg = tree.DiscretizationConfig(**asdict(solve.config()))
    s = tree.SpaceTimeSystem(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(s.ndof)

    def build(kind=solve.precond):
        return tree.build_preconditioner(s, kind)

    M = build()
    out = {"init": (lambda: cfg, tree.SpaceTimeSystem),
           "rhs": (lambda: preset.u, s.assemble_rhs),
           "pc": (lambda: solve.precond, build)}
    defect = getattr(M, "defect", None)
    if defect is not None:
        v = rng.standard_normal(len(defect.rows))
        out["em_first"] = (lambda: build().defect.em, lambda em: em(v))
        defect.em(v)  # the trace blocks, so that step times later calls
        out["step"] = (lambda: v, defect.em)
    else:
        apply_m = (lambda v: v) if M is None else M.apply
        out["step"] = (lambda: x, lambda v: s.apply(apply_m(v)))
    if M is not None:
        out["M"] = (lambda: x, M.apply)
    out["A"] = (lambda: x, s.apply)
    sol = tree.lift(s.primal, tree.postproc.extract_primal_field(s, x))
    out["norms"] = (lambda: sol, lambda sol: tree.error_norms(
        preset.u, preset.dt_u, sol, region=preset.restricted_region))
    return s.ndof, out


def median_ms(prepare, call, calls):
    times = []
    for _ in range(calls):
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def agreement(base, change):
    """True if one run of the layer base and one of change, each as
    (prepare, call), give outputs with the same bytes; else max|a - b| /
    max|a| of the two (an error report's unset norms NaN in both)."""
    a, b = (call(prepare()) for prepare, call in (base, change))
    if is_dataclass(a):
        a, b = (np.array(astuple(out), dtype=float) for out in (a, b))
    if a.dtype == b.dtype and a.shape == b.shape and (
            a.tobytes() == b.tobytes()):
        return True
    return relative_change(a, b)


def time_layers(solve, trees, calls):
    """The ndof of solve and, per layer, trees[0]'s median ms over the
    rounds and, with more trees, the quartiles over the rounds of each later
    tree's per-round ratio to trees[0] and trees[1]'s agreement with it."""
    built = [layers(tree, solve) for tree in trees]
    runs = [layers_ for _, layers_ in built]
    ms = {name: [[] for _ in trees] for name in runs[0]}
    order = range(len(trees))
    for round_ in range(ROUNDS if len(trees) > 1 else 1):
        for name, times in ms.items():
            for i in order if round_ % 2 == 0 else reversed(order):
                times[i].append(median_ms(*runs[i][name], calls))
    table = {}
    for name, (base_ms, *other_ms) in ms.items():
        row = table[name] = {"base_ms": statistics.median(base_ms)}
        for field, times in zip(("change_over_base", "aa"), other_ms):
            q1, median, q3 = np.percentile(np.divide(times, base_ms),
                                           [25, 50, 75])
            row[field] = {"median": median, "q1": q1, "q3": q3}
        if len(trees) > 1:
            row["bitwise"] = (agreement(runs[0][name], runs[1][name])
                              if name in OUTPUTS else None)
    return built[0][0], table


def report(solves, trees, base, calls, json_path):
    """Time every layer of each solve, print the table and write it as
    JSON to json_path unless that is None."""
    env = {"blas_threads_numpy": blas_threads(np),
           "blas_threads_scipy": blas_threads(scipy),
           "nproc": len(os.sched_getaffinity(0))}
    print(f"BLAS threads: numpy {env['blas_threads_numpy']}, scipy "
          f"{env['blas_threads_scipy']}; " + (
              f"{ROUNDS} rounds of {calls}-call medians; base {base}; ratio "
              f"median [quartiles] over rounds" if base else
              f"median of {calls} calls, ms"))
    print(f"{'key':<22}{'layer':>9}{'base ms' if base else 'ms':>10}" + (
        f"{'change/base':>27}{'A/A':>27}{'bitwise':>11}" if base else ""))
    env["load_average_before"] = os.getloadavg()
    configurations = []
    for solve in solves:
        ndof, table = time_layers(solve, trees, calls)
        for name, row in table.items():
            line = f"{solve.key:<22}{name:>9}{row['base_ms']:>10.3f}"
            if base:
                for r in (row["change_over_base"], row["aa"]):
                    line += (f"{r['median']:>11.3f} [{r['q1']:.3f}, "
                             f"{r['q3']:.3f}]")
                same = row["bitwise"]
                same = ("-" if same is None else "bitwise" if same is True
                        else f"{same:.3e}")
                line += f"{same:>11}"
            print(line, flush=True)
        configurations.append({"key": solve.key, "ndof": ndof,
                               "phases": table})
    env["load_average_after"] = os.getloadavg()
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump({"base": base and Path(base).resolve().name,
                       "rounds": ROUNDS if base else 1, "calls": calls,
                       "environment": env,
                       "configurations": configurations}, fh, indent=1)
            fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="*",
                        help="keep configurations whose key contains one "
                             "as whole dash-separated fields")
    parser.add_argument("--calls", type=int, default=30,
                        help="calls per median (default 30)")
    parser.add_argument("--base", metavar="TREE",
                        help="compare every layer with the checkout TREE "
                             "in one process")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the table to PATH")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    solves = [solve for workload in WORKLOADS.values()
              for solve in workload.solves
              if not args.keys
              or any(f"-{part}-" in f"-{solve.key}-" for part in args.keys)]
    trees = [waveuc] if args.base is None else [
        load_tree(args.base, "waveuc_base"), waveuc,
        load_tree(args.base, "waveuc_base_again")]
    report(solves, trees, args.base, args.calls, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
