"""Run every workload of BENCHMARK.json once and print its end-to-end
metrics as a table.

Run from the repository root:

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as its own ``perfbench/run.py`` process, so peak memory
is measured per workload.  Exits 1 if any run fails or reports an incorrect
result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n"
                  f"{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{workload}: correct={result['correct']} "
              f"failed {result['failed']} of {result['attempted']} solves")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
