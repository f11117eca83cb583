"""Benchmark of the waveuc solve pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload gcc-k2-mf --seed 1 --seconds 30 --trace 0

The workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; the layer -> end-to-end map is in perfbench/layer_map.json
and the reference error norms in perfbench/references.json.

A run first drives the workload's first configuration once, untimed (the
warm-up solve), and checks that waveuc.cli.run_solve gives the same
iterations, converged flag and error columns for it.  With ``--trace 0`` it
then repeats untraced sweeps until ``--seconds`` would be exceeded (at
least one), with SETUP_REPS set-up passes spread before, between and after
them, and reports the end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced sweeps the
same way and reports the per-layer split of the traced sweep with the
median wall time, plus the tracing overhead against the untraced median.

The last line of standard output is the JSON result.  ``failed`` counts
solves that failed the gate (see bench.check); ``correct`` is false when the
driven pipeline disagrees with the CLI's or produced a non-finite value.
Environment, per-solve results and, when traced, every span go to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up passes per --trace 0 run (at least); spread over the run, as
# set-up time drifts with the host's load like every other timing
SETUP_REPS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# OpenBLAS thread-count getters, by the symbol names of the builds numpy ships
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def hold_blas_threads():
    """Cap the BLAS thread count at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            n = int(os.environ[var])
        except (KeyError, ValueError):
            n = nproc
        os.environ[var] = str(min(max(n, 1), nproc))
    return nproc


def blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
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


def environment(nproc, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(runner, seconds, traced):
    """Rounds of sweeps until the next round would end past ``seconds``;
    at least one.  A round is one untraced sweep, followed by a traced one
    when ``traced``.  Untraced runs also time set-up passes: half of
    SETUP_REPS before the rounds, one at the start of each round, and the
    rest after.  Returns the untraced sweeps, the traced sweeps and the
    set-up pass times."""
    untraced, traced_sweeps, setup = [], [], []
    if not traced:
        setup = [runner.setup_pass() for _ in range(SETUP_REPS // 2)]
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if not traced:
            setup.append(runner.setup_pass())
        untraced.append(runner.sweep())
        if traced:
            traced_sweeps.append(runner.sweep(traced=True))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    while not traced and len(setup) < SETUP_REPS:
        setup.append(runner.setup_pass())
    return untraced, traced_sweeps, setup


def solve_rows(sweeps, references):
    rows = []
    for i, sweep in enumerate(sweeps):
        for r in sweep.results:
            ref = references.get(r.key, {})
            rows.append({
                "sweep": i, "traced": sweep.traced, "solve": r.key,
                "ndof": r.ndof, "iters": r.iters, "iters_ref": ref.get("iters"),
                "converged": r.converged, "true_residual": r.true_residual,
                "est_true_ratio": r.est_true_ratio, "errors": r.errors,
                "failures": r.failures,
            })
    return rows


def main(argv=None):
    args = parse_args(argv)
    nproc = hold_blas_threads()
    src = ROOT / "src"
    if not (src / "waveuc" / "__init__.py").is_file():
        print(f"error: no waveuc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())["solves"]
    env = environment(nproc, args.seed)
    print("env " + json.dumps(env), file=sys.stderr)

    runner = bench.Runner(workload, args.seed, references)
    parity = runner.warm_up_and_compare()
    if args.trace:
        untraced, traced, _ = measure(runner, args.seconds, traced=True)
        chosen = bench.median_sweep(traced)
        values = bench.layer_split(
            chosen, statistics.median(s.wall for s in untraced))
        layers = sum(values[m] for m in bench.SELF_METRICS)
        if not math.isclose(layers, values["trace.wall_s"], rel_tol=1e-9):
            print(f"error: layer self times sum to {layers!r}, traced wall "
                  f"is {values['trace.wall_s']!r}", file=sys.stderr)
            return 1
    else:
        untraced, traced, setup = measure(runner, args.seconds, traced=False)
        values = bench.end_to_end(untraced, setup)

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        print(f"error: computed metrics {sorted(values)} differ from "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 1
    sweeps = untraced + traced
    results = [r for s in sweeps for r in s.results]
    finite = all(math.isfinite(v) for v in values.values()) and all(
        math.isfinite(r.true_residual) and all(
            math.isfinite(e) for e in r.errors.values()) for r in results)
    rows = solve_rows(sweeps, references)
    for row in rows[: len(workload.solves)]:
        print("solve " + json.dumps(row), file=sys.stderr)
    for diff in parity:
        print(f"cli parity mismatch: {diff}", file=sys.stderr)

    result = {
        "correct": finite and not parity,
        "attempted": len(results),
        "failed": sum(bool(r.failures) for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"env": env, "workload": workload.name, "seconds": args.seconds,
              "trace": args.trace, "cli_parity_mismatches": parity,
              "solves": rows, "result": result}
    if args.trace:
        origin = traced[0].tracer.spans[traced[0].root].start
        record["median_traced_sweep"] = traced.index(chosen)
        record["precond_by_kind"] = {
            s.precond: dict(zip(
                ("build_s", "apply_s", "apply_calls"),
                chosen.total(f"precond.build.{s.precond}")[:1]
                + chosen.total(f"precond.apply.{s.precond}")))
            for s in workload.solves}
        record["spans"] = [s.tracer.as_dicts(origin) for s in traced]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
