"""Command-line experiment driver: single solves, convergence sweeps and
preconditioner iteration tables, all emitting one fixed CSV schema."""

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
import time
from dataclasses import replace

from .config import PRESETS
from .krylov import GmresBreakdown, GmresConfig, gmres
from .postproc import eoc, error_norms, extract_primal_field, lift
from .precond import KINDS, build_preconditioner
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
    # opened before assembly, so that an unwritable path fails at once
    with (contextlib.nullcontext() if residual_log is None
          else open(residual_log, "w")) as sink:

        def log(it, est, true_res):
            line = f"{it},{est:.6e}"
            if true_res is not None:
                line += f",{true_res:.6e}"
            sink.write(line + "\n")

        system = SpaceTimeSystem(config)
        b = system.assemble_rhs(preset.u)
        precond = build_preconditioner(system, config.precond)
        x, report = gmres(system.apply, b, precond,
                          GmresConfig(config.tol, config.maxiter),
                          log=None if sink is None else log)

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


def _open_out(out):
    """The CSV sink: the file out, or stdout when out is empty.  Callers open
    it before any assembly, so that an unwritable path fails at once.  The
    file is opened without truncating it and _write_rows empties it, so a
    run that fails before its rows leaves an existing file as it was."""
    return (open(out, "a", newline="") if out
            else contextlib.nullcontext(sys.stdout))


def _write_rows(rows, sink):
    # a pipe or device (--out /dev/stdout) holds no old rows and cannot be
    # truncated
    if sink is not sys.stdout and os.path.isfile(sink.name):
        sink.truncate(0)
    writer = csv.DictWriter(sink, fieldnames=CSV_HEADER)
    writer.writeheader()
    writer.writerows(rows)


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


# keys settable via flags or a key = value config file, each with the
# field it sets (preset: the preset's name) and its parser
_CONFIG_KEYS = {
    "preset": ("preset", str),
    "k": ("k", int), "q": ("q", int), "kstar": ("kstar", int),
    "qstar": ("qstar", int), "elems": ("n_elems", int),
    "slabs": ("n_slabs", int), "T": ("T", float),
    "omega": ("omega", _parse_omega), "precond": ("precond", str),
    "lambda": ("lam", float), "tol": ("tol", float),
    "maxiter": ("maxiter", int),
}
_CHOICES = {"preset": sorted(PRESETS), "precond": KINDS}


def build_config(args):
    """The run's configuration and preset from a config file and the flags
    that override it; not yet validated."""
    values = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key}")
            field, parse = _CONFIG_KEYS[key]
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"config key {key}: invalid value {raw!r} "
                                 f"({exc})") from None
    for field, _ in _CONFIG_KEYS.values():  # flags arrive parsed by argparse
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    name = values.pop("preset", "gcc1d")
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (known: "
                         f"{', '.join(sorted(PRESETS))})")
    # degrees default pairwise: the dual orders follow the primal ones
    # unless set explicitly
    for dual, primal in (("kstar", "k"), ("qstar", "q")):
        if dual not in values and primal in values:
            values[dual] = values[primal]
    return PRESETS[name].make_config(**values), PRESETS[name]


def _add_common_flags(p):
    p.add_argument("--config", help="key = value file; flags override it")
    for key, (field, parse) in _CONFIG_KEYS.items():
        p.add_argument(f"--{key}", type=parse, dest=field,
                       choices=_CHOICES.get(key))
    p.add_argument("--out", help="CSV output path (default: stdout)")


def _elems_for_slabs(config):
    """Element count giving h = dt on [0, 1] and the configuration's T."""
    exact = config.n_slabs / config.T if config.T else math.nan
    n = round(exact) if math.isfinite(exact) else 0
    if n < 1 or abs(exact - n) > 1e-9:
        raise ValueError(
            f"cannot match h = dt with N = {config.n_slabs} on [0, 1] and "
            f"T = {config.T}"
        )
    return n


def _sweep(args, slab_counts, preconds=None):
    """Solve every (preconditioner, N) pair with h = dt and write the rows.

    The configuration of args is built once; each run replaces its
    preconditioner (by default the configuration's own) and slab count and
    sets the element count from h = dt (any --elems or file elems is
    ignored), and all runs are validated before the first solve.  Returns
    the error reports and whether every solve converged.
    """
    base, preset = build_config(args)
    runs = []
    for precond, n_slabs in itertools.product(preconds or [base.precond],
                                              slab_counts):
        config = replace(base, precond=precond, n_slabs=n_slabs)
        config = replace(config, n_elems=_elems_for_slabs(config))
        runs.append(config.validate())
    with _open_out(args.out) as sink:
        results = [run_solve(config, preset) for config in runs]
        _write_rows([row for row, _, _ in results], sink)
    return ([errors for _, _, errors in results],
            all(report.converged for _, report, _ in results))


def cmd_solve(args):
    config, preset = build_config(args)
    config.validate()
    with _open_out(args.out) as sink:
        row, report, _ = run_solve(config, preset,
                                   residual_log=args.residual_log)
        _write_rows([row], sink)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_convergence(args):
    errors, all_converged = _sweep(args, args.levels)
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
    _, all_converged = _sweep(args, args.slab_list, args.precond_list)
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
    # the sweeps write no residual log, so they refuse the flag
    p_solve.add_argument("--residual-log",
                         help="per-iteration residual log path")
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
    except (ValueError, OSError, MemoryError, GmresBreakdown) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
