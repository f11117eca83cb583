"""Self-test of the benchmark on a tiny configuration (gcc1d, k=q=1, N=4).

Run from the repository root; it takes a few seconds:

    python3 perfbench/selftest.py

It checks that every metric of BENCHMARK.json is produced and printed with
its unit, that a solve capped at maxiter=5 counts as failed, and that in a
traced sweep the child self times plus the remainder add up to each parent
span.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from tracing import self_times  # noqa: E402

TINY = bench.Solve("gcc1d", 1, 4, "mf")


def tiny_runner(solves, references):
    return bench.Runner(bench.Workload("tiny", solves), 0, references)


def reference_for(solve):
    outcome = bench.run_pipeline(solve, bench.Tracer(), 0)
    return {solve.key: {"errors": outcome.errors}}


def test_metrics_printed_with_units(spec, references):
    runner = tiny_runner((TINY,), references)
    sweeps = [runner.sweep() for _ in range(2)]
    traced = runner.sweep(traced=True)
    produced = {
        "end_to_end": bench.end_to_end(sweeps, [runner.setup_pass()]),
        "per_layer": bench.layer_split(traced, sweeps[0].wall),
    }
    for kind, values in produced.items():
        names = {m["name"] for m in spec[kind]}
        assert set(values) == names, (kind, set(values) ^ names)
        assert all(math.isfinite(v) for v in values.values()), values
    assert produced["end_to_end"]["passed_share"] == 1.0


def test_capped_solve_fails(references):
    capped = replace(TINY, maxiter=5)
    runner = tiny_runner((capped,), references)
    (result,) = runner.sweep().results
    assert not result.converged and result.iters == 5
    assert any("unconverged" in f for f in result.failures), result.failures
    assert bench.end_to_end([runner.sweep()], [1.0])["passed_share"] == 0.0


def test_self_times_add_up(references):
    runner = tiny_runner((TINY,), references)
    sweep = runner.sweep(traced=True)
    spans = sweep.tracer.spans
    names = {s.name for s in spans}
    for expected in ("spacetime_system.apply", "precond.apply.mf",
                     "krylov.true_check", "postproc.errors"):
        assert expected in names, expected
    own = self_times(spans)
    for i, parent in enumerate(spans):
        children = [j for j, s in enumerate(spans) if s.parent == i]
        below = sum(subtree_self(spans, own, j) for j in children)
        assert math.isclose(own[i] + below, parent.duration,
                            rel_tol=1e-9, abs_tol=1e-12), parent.name
        for j in children:
            assert parent.start <= spans[j].start <= spans[j].end <= parent.end
    split = bench.layer_split(sweep, sweep.wall)
    total = sum(split[m] for m in bench.SELF_METRICS)
    assert math.isclose(total, split["trace.wall_s"], rel_tol=1e-9)


def subtree_self(spans, own, i):
    return own[i] + sum(subtree_self(spans, own, j)
                        for j, s in enumerate(spans) if s.parent == i)


def test_command_prints_every_metric(spec):
    """The command line itself, on the smallest workload, for a second."""
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "nogcc-k1-mf", "--seed", "0", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[kind]}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = reference_for(TINY)
    test_metrics_printed_with_units(spec, references)
    test_capped_solve_fails(references)
    test_self_times_add_up(references)
    test_command_prints_every_metric(spec)
    print("perfbench self-test: ok")


if __name__ == "__main__":
    main()
