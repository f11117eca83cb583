"""Command-line experiment driver: single solves, convergence sweeps and
preconditioner iteration tables, all emitting one fixed CSV schema."""

import argparse
import csv
import itertools
import math
import sys
import time
from dataclasses import replace

from .config import PRECONDITIONERS, PRESETS
from .krylov import GmresConfig, gmres
from .postproc import eoc, error_norms, extract_primal_field, lift
from .precond import build_preconditioner
from .spacetime_system import SpaceTimeSystem

CSV_HEADER = [
    "preset", "k", "q", "kstar", "qstar", "N", "h", "dt", "ndof", "precond",
    "iters", "converged", "err_LinfL2_u", "err_L2L2_ut", "err_LinfL2_u_Bt",
    "err_L2L2_ut_Bt", "walltime_s",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2


def _fmt(x):
    return "" if x is None else f"{x:.12g}"


def run_solve(config, preset, residual_log=None):
    """Assemble, solve, lift and measure one configuration.

    Returns (csv row dict, SolveReport, ErrorReport).
    """
    t0 = time.perf_counter()
    system = SpaceTimeSystem(config)
    b = system.assemble_rhs(preset.u)
    precond = build_preconditioner(system, config.precond)

    log = None
    sink = None
    if residual_log is not None:
        sink = open(residual_log, "w")

        def log(it, est, true_res):
            line = f"{it},{est:.6e}"
            if true_res is not None:
                line += f",{true_res:.6e}"
            sink.write(line + "\n")

    try:
        x, report = gmres(system.apply, b, precond,
                          GmresConfig(config.tol, config.maxiter), log=log)
    finally:
        if sink is not None:
            sink.close()

    lifted = lift(system.primal, extract_primal_field(system, x))
    errors = error_norms(preset.u, preset.dt_u, lifted,
                         region=preset.restricted_region)
    walltime = time.perf_counter() - t0
    row = {
        "preset": preset.name,
        "k": config.k,
        "q": config.q,
        "kstar": config.kstar,
        "qstar": config.qstar,
        "N": config.n_slabs,
        "h": _fmt(config.h),
        "dt": _fmt(config.dt),
        "ndof": system.ndof,
        "precond": config.precond,
        "iters": report.iterations,
        "converged": "true" if report.converged else "false",
        "err_LinfL2_u": _fmt(errors.err_LinfL2_u),
        "err_L2L2_ut": _fmt(errors.err_L2L2_ut),
        "err_LinfL2_u_Bt": _fmt(errors.err_LinfL2_u_restricted),
        "err_L2L2_ut_Bt": _fmt(errors.err_L2L2_ut_restricted),
        "walltime_s": f"{walltime:.3f}",
    }
    return row, report, errors


def _write_rows(rows, out):
    sink = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            sink.close()


def _parse_omega(text):
    intervals = []
    for part in text.split(";"):
        lo, hi = (float(v) for v in part.split(","))
        intervals.append((lo, hi))
    return tuple(intervals)


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


# keys settable via flags or a key = value config file, with their parsers
_CONFIG_KEYS = {
    "k": int, "q": int, "kstar": int, "qstar": int,
    "elems": int, "slabs": int, "T": float,
    "omega": _parse_omega, "precond": str, "lambda": float,
    "tol": float, "maxiter": int,
}
_KEY_TO_FIELD = {
    "elems": "n_elems", "slabs": "n_slabs", "lambda": "lam",
}


def build_config(args):
    """The run's configuration and preset from a config file and the flags
    that override it; not yet validated."""
    preset = PRESETS[args.preset]
    values = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key == "preset":
                if raw not in PRESETS:
                    raise ValueError(f"unknown preset {raw!r} (known: "
                                     f"{', '.join(sorted(PRESETS))})")
                preset = PRESETS[raw]
                continue
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key}")
            values[_KEY_TO_FIELD.get(key, key)] = _CONFIG_KEYS[key](raw)
    for key, parse in _CONFIG_KEYS.items():
        flag = getattr(args, _KEY_TO_FIELD.get(key, key), None)
        if flag is not None:
            values[_KEY_TO_FIELD.get(key, key)] = (
                flag if not isinstance(flag, str) else parse(flag)
            )
    cfg = preset.make_config(**values)
    # degrees default pairwise: the dual orders follow the primal ones
    # unless set explicitly
    if "kstar" not in values and "k" in values:
        cfg = replace(cfg, kstar=values["k"])
    if "qstar" not in values and "q" in values:
        cfg = replace(cfg, qstar=values["q"])
    return cfg, preset


def _add_common_flags(p):
    p.add_argument("--preset", choices=sorted(PRESETS), default="gcc1d")
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--kstar", type=int)
    p.add_argument("--qstar", type=int)
    p.add_argument("--elems", type=int, dest="n_elems")
    p.add_argument("--slabs", type=int, dest="n_slabs")
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--omega", type=_parse_omega)
    p.add_argument("--precond", choices=PRECONDITIONERS)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--tol", type=float)
    p.add_argument("--maxiter", type=int)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--residual-log", help="per-iteration residual log path")


def _elems_for_slabs(config):
    """Element count giving h = dt on the configuration's own [a, b] and T."""
    exact = (config.n_slabs * (config.b - config.a) / config.T
             if config.T else math.nan)
    n = round(exact) if math.isfinite(exact) else 0
    if n < 1 or abs(exact - n) > 1e-9:
        raise ValueError(
            f"cannot match h = dt with N = {config.n_slabs} on [{config.a}, "
            f"{config.b}] and T = {config.T}"
        )
    return n


def _sweep(args, preconds, slab_counts):
    """Solve every (preconditioner, N) pair with h = dt and write the rows.

    Each configuration is built from a copy of args with the element count
    set from h = dt (any --elems or file elems is ignored), and all of them
    are validated before the first solve.  Returns the error reports and
    whether every solve converged.
    """
    runs = []
    for precond, n_slabs in itertools.product(preconds, slab_counts):
        config, preset = build_config(argparse.Namespace(
            **{**vars(args), "precond": precond, "n_slabs": n_slabs}))
        config = replace(config, n_elems=_elems_for_slabs(config))
        runs.append((config.validate(), preset))
    results = [run_solve(config, preset) for config, preset in runs]
    _write_rows([row for row, _, _ in results], args.out)
    return ([errors for _, _, errors in results],
            all(report.converged for _, report, _ in results))


def cmd_solve(args):
    config, preset = build_config(args)
    row, report, _ = run_solve(config.validate(), preset,
                               residual_log=args.residual_log)
    _write_rows([row], args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_convergence(args):
    errors, all_converged = _sweep(args, [args.precond], args.levels)
    if len(errors) >= 2:
        columns = [("err_LinfL2_u", [e.err_LinfL2_u for e in errors]),
                   ("err_L2L2_ut", [e.err_L2L2_ut for e in errors]),
                   ("err_L2L2_ut_Bt",
                    [e.err_L2L2_ut_restricted for e in errors])]
        for name, errs in columns:
            if None not in errs:
                print(f"eoc {name}:", " ".join(f"{r:.2f}" for r in eoc(errs)),
                      file=sys.stderr)
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_iters(args):
    _, all_converged = _sweep(args, args.precond_list, args.slab_list)
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def _int_list(text):
    return [int(v) for v in text.split(",")]


def make_parser():
    parser = argparse.ArgumentParser(
        prog="waveuc",
        description="Stabilized space-time solver for wave-equation "
                    "unique continuation in one space dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configuration")
    _add_common_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("convergence",
                            help="refinement sweep with h = dt and EOC rates")
    _add_common_flags(p_conv)
    p_conv.add_argument("--levels", type=_int_list, default=[8, 16, 32, 64],
                        help="comma-separated slab counts")
    p_conv.set_defaults(func=cmd_convergence)

    p_it = sub.add_parser("iters",
                          help="iteration counts across preconditioners")
    _add_common_flags(p_it)
    p_it.add_argument("--precond-list", type=lambda s: s.split(","),
                      default=["mf", "ml"], dest="precond_list")
    p_it.add_argument("--slab-list", type=_int_list, default=[8, 16],
                      dest="slab_list")
    p_it.set_defaults(func=cmd_iters)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error is an invalid configuration; --help exits 0
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
