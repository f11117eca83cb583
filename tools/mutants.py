"""Mutation check of the method's constants: apply each of a fixed list of
one-line source faults to a copy of this checkout, run the tier-1 tests
inside that copy and print the tests that fail.

    python3 tools/mutants.py [NAME ...]

Each mutant replaces the text OLD of one line of a file by NEW; OLD must
occur exactly once in that file (tests/test_mutants.py checks this, so the
list cannot go stale unseen).  NAME arguments keep only the mutants named.

The copy holds src, tests, tools, perfbench and pyproject.toml, and pytest
runs in it with its own pyproject.toml, whose pythonpath = ["src"] puts the
copy's src first, so the mutated package is the one tested (PYTHONPATH is
dropped as well).  tests/test_mutants.py, which checks this list against
the unmutated tree, is left out of that run.  A mutant no test kills is
printed as SURVIVED: either it is equivalent (it changes no output) or a
test is missing.  Each mutant costs one tier-1 run, about a minute on a
2-core machine, so this is run by hand, not in tier-1.  The exit code is 1
if any mutant survived, else 0.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

CHECKOUT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
SLAB_FORMS = "src/waveuc/slab_forms.py"
# the check that this list applies to the unmutated tree, which every
# mutant would fail
LIST_CHECK = "tests/test_mutants.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str


MUTANTS = [
    # the time-interface jump weights W1 = Mx / dt + dt Kx and W2 = Mx / dt
    Mutant("jump-W1-gradient-doubled", SLAB_FORMS,
           "W1 = _sum(W2, space.spatial(space, 1, 1).scaled(dt))",
           "W1 = _sum(W2, space.spatial(space, 1, 1).scaled(2 * dt))"),
    Mutant("jump-W2-halved", SLAB_FORMS,
           "W2 = Mx.scaled(1 / dt)", "W2 = Mx.scaled(0.5 / dt)"),
    # the primal stabilizers summed into Sh
    Mutant("Sh-without-I0", SLAB_FORMS,
           'for name in ("J", "G", "I0", "R")', 'for name in ("J", "G", "R")'),
    Mutant("Sh-without-J", SLAB_FORMS,
           'for name in ("J", "G", "I0", "R")', 'for name in ("G", "I0", "R")'),
    Mutant("G-laplacian-weight-h", SLAB_FORMS,
           "(0, 0, h**2, tmat(0, 0), space.spatial(space, 2, 2)),",
           "(0, 0, h, tmat(0, 0), space.spatial(space, 2, 2)),"),
    Mutant("rhs-quadrature-2-points", "src/waveuc/spacetime_system.py",
           "DATA_QUADRATURE_POINTS = 6", "DATA_QUADRATURE_POINTS = 2"),
    # the dual stabilizer S*
    Mutant("Sstar-z2-mass-doubled", SLAB_FORMS,
           "(1, 1, 1.0, Mt, Mx),", "(1, 1, 2.0, Mt, Mx),"),
    Mutant("Sstar-z1-stiffness-doubled", SLAB_FORMS,
           "_sum(Mx, Kx, Pb.scaled(1 / space.mesh.h))",
           "_sum(Mx, Kx.scaled(2.0), Pb.scaled(1 / space.mesh.h))"),
    # the data mass Momega (and dfb's observer, the same form)
    Mutant("data-mass-doubled", SLAB_FORMS,
           "[(0, 0, 1.0, Mt, Mw)]", "[(0, 0, 2.0, Mt, Mw)]"),
    # dfb's extra terms
    Mutant("dfb-nitsche-weight-lam-h", SLAB_FORMS,
           "lam / primal.mesh.h", "lam * primal.mesh.h"),
    Mutant("dfb-coupling-u1-sign", SLAB_FORMS,
           "[(0, 1, 1.0, T, Mdp), (1, 0, 1.0, T, Mdp)]",
           "[(0, 1, 1.0, T, Mdp), (1, 0, -1.0, T, Mdp)]"),
    # the lift's blending weight, which must decay over each slab
    Mutant("lift-blend-grows", "src/waveuc/postproc.py",
           "theta = 1.0 - lift_basis.nodes", "theta = lift_basis.nodes"),
]


def mutated(mutant, source):
    """source with the mutant's one replacement made."""
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times "
                         f"in {mutant.path}")
    return source.replace(mutant.old, mutant.new)


def failing_tests(mutant):
    """The pytest exit code and the ids of the failing tests of the tier-1
    run on a copy of the checkout with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="waveuc-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = CHECKOUT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.
                                ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(source, copy / name)
        target = copy / mutant.path
        target.write_text(mutated(mutant, target.read_text()))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
             "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--rootdir", str(copy), "-c", str(copy / "pyproject.toml"),
             "--ignore", str(copy / LIST_CHECK)],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split(" ", 1)[1].split(" - ")[0]
              for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = []
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        t0 = time.perf_counter()
        code, failed = failing_tests(mutant)
        seconds = time.perf_counter() - t0
        if code == 0:
            survived.append(mutant.name)
            print(f"SURVIVED {mutant.name} ({seconds:.0f} s)", flush=True)
            continue
        print(f"killed   {mutant.name} by {len(failed)} tests, pytest exit "
              f"{code} ({seconds:.0f} s)", *failed, sep="\n    ", flush=True)
    print(f"{len(survived)} survived: {' '.join(survived) or '-'}")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
