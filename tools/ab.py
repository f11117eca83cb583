"""Time every layer of the benchmark's solves and, against a base tree,
compare every assembled and solved output of the two trees bit for bit, in
one process.

    PYTHONPATH=src python3 tools/ab.py [--calls 30] [--json BENCH.json]
        [KEY ...]
    PYTHONPATH=src python3 tools/ab.py --base TREE [--calls 30]
        [--json BENCH.json] [KEY ...]

The layers of each solve configuration of the benchmark's workloads, each
timed as the median over --calls calls, in ms:

- init, rhs, pc: the set-up phases, SpaceTimeSystem(config),
  assemble_rhs and build_preconditioner;
- em_first: the first defect.em call of a freshly built preconditioner,
  which builds the trace blocks (mf and block only; the build is not
  timed);
- step: what one Arnoldi step applies before it orthogonalizes, as gmres
  runs it: defect.em(v) on the defect rows for mf and block, A(M(v)) on
  the whole vector for ml, dfb and none;
- M: one preconditioner apply (every kind);
- A: one operator apply;
- norms: one error_norms call on the lifted primal part of a random vector,
  over the preset's restricted region where it has one.

Every input is drawn from a fixed seed.  KEY arguments keep only the
configurations whose key (for example gcc1d-k2-N48-mf) contains one of them
as whole dash-separated fields: N48 keeps every N = 48 solve, and a full
key keeps only itself (gcc1d-k1-N16-mf, not nogcc1d-k1-N16-mf).  KEY
selects the timed configurations only; the outputs are always all of them.

Without --base it times the waveuc on PYTHONPATH once.  With --base TREE it
loads TREE/src/waveuc under one module name, the change (this checkout's
src/waveuc) under a second and, for the A/A floor, TREE once more under a
third, all three the same way, so that the A/A floor also covers how a
tree is loaded; timings from separate processes cannot be compared on a
host whose speed changes between them.  The waveuc on PYTHONPATH, which
the benchmark's workload list imports, is then neither timed nor
compared.  It times every layer of the three in
ROUNDS = 10 rounds, reversing the trees' order from one round to the next,
so that each goes first as often as the other, and prints for each layer
the base tree's median over the rounds in ms and the median over the rounds
of the per-round ratios change/base and base again/base (the A/A floor)
with their quartiles in brackets.  A ratio below 1 is a faster change; one
whose quartiles overlap the A/A floor's is not told apart from the host.

After the timing it builds the outputs of base and change, each as one dict
of arrays, and compares them.  It reads waveuc through its public names
only, so a change to the preconditioners' internals needs no change here.
For a few fixed systems (one of them with dual orders below the primal
ones) the dict holds the CSR arrays of every form a preconditioner's blocks
are summed from: the system's blocks (A_pd, A_pd_T, Sh, Sstar, Momega), the
four primal stabilizer parts beside their sum, the jump blocks and their
restriction to the slab traces (jump_weight and its transpose), the dual
interface mass, the forward-backward split's extra blocks and the light
sweep's reduced wave operator and dual stabilizer.  Each preconditioner is
read through what gmres reads of it, and nothing else: its apply and, where
it has a defect, the defect's rows, its action and its action after the
preconditioner (em).  Every LU and kept matrix feeds one of those or a
solve, so a change in what a block is factored from shows there, and a
change that moves none of them is no difference.  Beside them it holds
each system's right-hand side, one operator apply, its slab trace rows and
the jump terms on the traces of the same vector; the point-evaluation forms
(gradient jump, boundary penalty and flux) and the slab degree embedding
on meshes of 1, 2 and 5 elements; and the iterates, residual histories, CSV
rows, residual logs, error norms and preconditioner apply counts of SOLVES,
the benchmark's solves and one unpreconditioned one.  Each output that
differs is printed as present in one tree only, as differing in dtype only
(equal values), or with max|a - b| / max|a| over the positions finite in
both, so that an intended rounding change shows its size.  The two output
dicts take most of a --base run: about a minute on a 2-core machine.

The first line gives the thread counts of the OpenBLAS libraries that numpy
and scipy loaded (each has its own).  --json PATH also writes the table to
PATH, with both BLAS thread counts, nproc, the load average before and
after the timing and, with --base, the comparison (schema in README.md).
The exit code is 1 if any output differs, else 0.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import waveuc

# this checkout, whose src/waveuc is the change against a base tree
CHECKOUT = Path(__file__).resolve().parent.parent
# the benchmark's workloads and the OpenBLAS thread-count getters
sys.path.insert(0, str(CHECKOUT / "perfbench"))
from bench import WORKLOADS, Solve  # noqa: E402
from run import BLAS_THREAD_SYMBOLS  # noqa: E402

ROUNDS = 10
# (preset, k = q, kstar = qstar, slabs); every system has 2 * slabs elements
SYSTEMS = [("gcc1d", 1, 1, 16), ("nogcc1d", 1, 1, 32), ("gcc1d", 2, 2, 4),
           ("gcc1d", 2, 2, 48), ("gcc1d", 3, 3, 4), ("nogcc1d", 2, 2, 2),
           ("gcc1d", 2, 1, 4)]
SOLVES = ([solve for workload in WORKLOADS.values()
           for solve in workload.solves] + [Solve("gcc1d", 1, 16, "none")])


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


def config(tree, solve, **changes):
    """solve.config(), with changes, as the loaded package tree's own
    DiscretizationConfig."""
    return tree.DiscretizationConfig(**{**asdict(solve.config()), **changes})


def layers(tree, solve):
    """The ndof of solve and its layers on the loaded package tree, in
    order, as name -> (prepare, call): call(prepare()) runs the layer once,
    and only call is timed.  Every tree draws the same inputs."""
    preset = tree.PRESETS[solve.preset]
    cfg = config(tree, solve)
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
        out["step"] = (lambda: x, lambda v: s.apply(M.apply(v)))
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


def time_layers(solve, trees, calls):
    """The ndof of solve and, per layer, trees[0]'s median ms over the
    rounds and, with more trees, the quartiles over the rounds of each later
    tree's per-round ratio to trees[0]."""
    ndofs, runs = zip(*(layers(tree, solve) for tree in trees))
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
    return ndofs[0], table


def time_solves(solves, trees, base, calls):
    """Time every layer of each solve and print the table; return its
    environment and configurations."""
    env = {"blas_threads_numpy": blas_threads(np),
           "blas_threads_scipy": blas_threads(scipy),
           "nproc": len(os.sched_getaffinity(0))}
    print(f"BLAS threads: numpy {env['blas_threads_numpy']}, scipy "
          f"{env['blas_threads_scipy']}; " + (
              f"{ROUNDS} rounds of {calls}-call medians; base {base}; ratio "
              f"median [quartiles] over rounds" if base else
              f"median of {calls} calls, ms"))
    print(f"{'key':<22}{'layer':>9}{'base ms' if base else 'ms':>10}" + (
        f"{'change/base':>27}{'A/A':>27}" if base else ""))
    env["load_average_before"] = os.getloadavg()
    configurations = []
    for solve in solves:
        ndof, table = time_layers(solve, trees, calls)
        for name, row in table.items():
            line = f"{solve.key:<22}{name:>9}{row['base_ms']:>10.3f}"
            for r in (row[f] for f in ("change_over_base", "aa") if f in row):
                line += f"{r['median']:>11.3f} [{r['q1']:.3f}, {r['q3']:.3f}]"
            print(line, flush=True)
        configurations.append({"key": solve.key, "ndof": ndof,
                               "phases": table})
    env["load_average_after"] = os.getloadavg()
    return env, configurations


def put_csr(out, key, form):
    """The CSR arrays of form, a scipy matrix or waveuc's Triplets."""
    matrix = form.tocsr()
    for name in ("data", "indices", "indptr"):
        out[f"{key}-{name}"] = getattr(matrix, name)


def put_blocks(tree, out, key, s):
    """The forms the preconditioners sum their blocks from, beside the
    system's own blocks."""
    forms = tree.slab_forms
    # the parts without stored zeros: no block is built from them but their
    # sum, which drops them, and G keeps those of its second-derivative
    # spatial factors (all zero at k = 1)
    for name, block in forms.assemble_primal_stabilizers(s.primal).items():
        block = block.tocsr().copy()
        block.eliminate_zeros()
        put_csr(out, f"{key}-stabilizer_{name}", block)
    put_csr(out, f"{key}-dual_interface_mass",
            forms.assemble_dual_interface_mass(s.dual))
    cfg = s.config
    if (cfg.kstar, cfg.qstar) == (cfg.k, cfg.q):
        extras = forms.assemble_dfb_extras(s.primal, s.dual, s.data,
                                           cfg.resolved_lambda())
        for name, block in extras.items():
            put_csr(out, f"{key}-dfb_{name}", block)
    # the light sweep's dual pair
    light = forms.SlabSpace(s.mesh, 1, 0, cfg.dt)
    put_csr(out, f"{key}-ml_A", forms.assemble_A(s.primal, light))
    put_csr(out, f"{key}-ml_Sstar", forms.assemble_dual_stabilizer(light))


def put_systems(tree, out):
    for preset, k, kstar, n_slabs in SYSTEMS:
        s = tree.SpaceTimeSystem(config(tree, Solve(preset, k, n_slabs, "mf"),
                                        kstar=kstar, qstar=kstar))
        key = f"{preset}-k{k}-N{n_slabs}"
        kinds = ["mf", "ml", "dfb", "block"]
        if kstar != k:
            # dfb refuses unequal orders
            key = f"{preset}-k{k}-kstar{kstar}-N{n_slabs}"
            kinds.remove("dfb")
        for name in ("A_pd", "A_pd_T", "Sh", "Sstar", "Momega",
                     "jump_weight", "jump_weight_T"):
            put_csr(out, f"{key}-{name}", getattr(s, name))
        for name, block in s.jump.items():
            put_csr(out, f"{key}-jump_{name}", block)
        put_blocks(tree, out, key, s)
        out[key + "-rhs"] = s.assemble_rhs(tree.PRESETS[preset].u)
        r = np.random.default_rng(2024).standard_normal(s.ndof)
        out[key + "-apply"] = s.apply(r)
        out[key + "-trace"] = s.trace
        out[key + "-trace_jumps"] = s.trace_jumps(s.slab_view(r)[:, s.trace].T)
        for kind in kinds:
            M = tree.build_preconditioner(s, kind)
            out[f"{key}-{kind}"] = M.apply(r)
            defect = getattr(M, "defect", None)
            if defect is not None:
                out[f"{key}-{kind}-defect_rows"] = defect.rows
                out[f"{key}-{kind}-defect"] = defect(r)
                v = np.random.default_rng(7).standard_normal(len(defect.rows))
                out[f"{key}-{kind}-defect_em"] = defect.em(v)


def put_forms(tree, out):
    forms = tree.slab_forms
    degrees = (1, 2, 3)
    for n_elems in (1, 2, 5):
        mesh = tree.mesh.build_interval_mesh(0.0, 1.0, n_elems)
        for k in degrees:
            fine = tree.basis.SpatialBasis(k)
            put_csr(out, f"J-n{n_elems}-k{k}",
                    forms.gradient_jump_matrix(mesh, fine))
            for kc in degrees:
                coarse = tree.basis.SpatialBasis(kc)
                tag = f"n{n_elems}-k{k}-{kc}"
                put_csr(out, f"P-{tag}",
                        forms.boundary_penalty_matrix(mesh, fine, coarse))
                put_csr(out, f"F-{tag}",
                        forms.boundary_flux_matrix(mesh, fine, coarse))
                if kc <= k:
                    # spatial degrees k over kc, temporal k over kc - 1
                    # (ml's sweep embeds orders (1, 0))
                    put_csr(out, f"embedding-{tag}", forms.assemble_embedding(
                        forms.SlabSpace(mesh, k, k, 1.0 / n_elems),
                        forms.SlabSpace(mesh, kc, kc - 1, 1.0 / n_elems)))


def put_solves(tree, out):
    cli = importlib.import_module(f"{tree.__name__}.cli")
    solve = cli.gmres
    last = {}

    def capture(apply_op, b, precond, *args, **kwargs):
        # count the preconditioner applies of the solve
        last["applies"] = 0
        apply = precond.apply

        def counted(r):
            last["applies"] += 1
            return apply(r)

        precond.apply = counted
        result = solve(apply_op, b, precond, *args, **kwargs)
        last["x"] = result[0]
        return result

    cli.gmres = capture
    try:
        for s in SOLVES:
            with tempfile.TemporaryDirectory() as tmp:
                log = os.path.join(tmp, "resid.log")
                row, report, errors = cli.run_solve(
                    config(tree, s), tree.PRESETS[s.preset], residual_log=log)
                with open(log) as fh:
                    log_text = fh.read()
            del row["walltime_s"]
            key = f"{s.key}-solve"
            out[key + "-x"] = last["x"]
            out[key + "-history"] = np.array(report.residual_history)
            out[key + "-true"] = np.array(report.true_residuals)
            out[key + "-row"] = np.array(repr(sorted(row.items())))
            out[key + "-log"] = np.array(log_text)
            out[key + "-precond_applies"] = np.array(last["applies"])
            # the restricted norms are None without a restricted region
            out[key + "-errors"] = np.array(
                [np.nan if v is None else v for v in (
                    errors.err_LinfL2_u, errors.err_L2L2_ut,
                    errors.err_LinfL2_u_restricted,
                    errors.err_L2L2_ut_restricted)])
    finally:
        cli.gmres = solve


def outputs(tree):
    """Every output of the loaded package tree, as key -> array."""
    out = {}
    put_systems(tree, out)
    put_forms(tree, out)
    put_solves(tree, out)
    return out


def relative_change(a, b):
    """max|a - b| / max|a| over the positions where both of two numeric
    arrays of one shape are finite (the unset restricted error norms are
    NaN in both); None for any other pair."""
    if (a.shape != b.shape
            or not all(np.issubdtype(x.dtype, np.number) for x in (a, b))):
        return None
    a, b = a.astype(float), b.astype(float)
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.any():
        return None
    scale = np.abs(a[finite]).max()
    diff = np.abs(a[finite] - b[finite]).max()
    return diff / scale if scale else np.inf


def compare(base, change):
    """Every key whose output differs between the output dicts base and
    change, in key order, as "base only" or "change only", as
    "dtype only (<base dtype> -> <change dtype>)" for equal values, or as
    relative_change of the two."""
    differ = {}
    for key in sorted(base.keys() | change.keys()):
        if key not in base or key not in change:
            differ[key] = "base only" if key in base else "change only"
            continue
        a, b = np.asarray(base[key]), np.asarray(change[key])
        if (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()):
            continue
        if a.dtype != b.dtype and a.shape == b.shape and np.array_equal(a, b):
            differ[key] = f"dtype only ({a.dtype} -> {b.dtype})"
        else:
            differ[key] = relative_change(a, b)
    return differ


def compare_trees(base, change):
    """Build the outputs of both loaded packages, print every difference
    and return the comparison's JSON section."""
    a, b = outputs(base), outputs(change)
    differ = compare(a, b)
    for key, what in differ.items():
        print(f"differs: {key}" + (
            f" (max|a - b| / max|a| = {what:.3e})" if isinstance(what, float)
            else f" ({what})" if what else ""))
    n = len(a.keys() | b.keys())
    print(f"{n - len(differ)} of {n} outputs bitwise identical")
    return {"outputs": n, "differ": differ}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="*", metavar="KEY",
                        help="time only configurations whose key contains "
                             "one as whole dash-separated fields")
    parser.add_argument("--calls", type=int, default=30,
                        help="calls per median (default 30)")
    parser.add_argument("--base", metavar="TREE",
                        help="time every layer against the checkout TREE "
                             "in one process and compare every output")
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
        load_tree(args.base, "waveuc_base"),
        load_tree(CHECKOUT, "waveuc_change"),
        load_tree(args.base, "waveuc_base_again")]
    env, configurations = time_solves(solves, trees, args.base, args.calls)
    table = {"base": args.base and Path(args.base).resolve().name,
             "rounds": ROUNDS if args.base else 1, "calls": args.calls,
             "environment": env, "configurations": configurations}
    if args.base:
        table["bitwise"] = compare_trees(*trees[:2])
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    return 1 if table.get("bitwise", {}).get("differ") else 0


if __name__ == "__main__":
    sys.exit(main())
