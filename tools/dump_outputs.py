"""Dump the assembled and solved outputs of waveuc, or compare two dumps
bit for bit.

    PYTHONPATH=<tree>/src python3 tools/dump_outputs.py OUT.npz
    PYTHONPATH=src python3 tools/dump_outputs.py --compare A.npz B.npz

The dump reads waveuc through its public names only, so a change to the
preconditioners' internals needs no change here.  For a few fixed systems
(one of them with dual orders below the primal ones) it holds the CSR
arrays of every form a preconditioner's blocks are summed from: the
system's blocks (A_pd, A_pd_T, Sh, Sstar, Momega), the four primal
stabilizer parts beside their sum, the jump blocks and their restriction
to the slab traces (jump_weight and its transpose), the dual interface
mass, the forward-backward split's extra blocks and the light sweep's
reduced wave operator and dual stabilizer.  For each preconditioner it
holds the lu, piv, kl and ku of every LU it keeps (M.lus, M.lu,
M.sstar_lu), the matrices it keeps beside them (the sweeps' coupling, ml's
embed and embed_T, dfb's carried columns), its apply and, where it has a
defect, the defect's rows, its action and its action after the
preconditioner (em).  So a change in what a block is factored from shows
in an LU, an apply or a solve.  Beside them it holds each system's
right-hand side, one operator apply, its slab trace rows and the jump
terms on the traces of the same vector; the point-evaluation forms
(gradient jump, boundary penalty and flux) and the slab degree embedding
on meshes of 1, 2 and 5 elements; and the iterates, residual histories,
CSV rows, residual logs, error norms and preconditioner apply counts of
the benchmark's solves.

--compare exits 1 unless both files hold the same outputs with the same
bytes.  An array whose values are equal but whose dtype differs is
reported as differing in dtype only; for any other numeric array that
differs at equal shape it also prints max|a - b| / max|a| over the
positions finite in both, so that an intended rounding change shows its
size.  The solves take about half a minute on a 2-core machine.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

import waveuc.cli as cli
from waveuc.basis import SpatialBasis
from waveuc.config import PRESETS
from waveuc.mesh import build_interval_mesh
from waveuc.precond import build_preconditioner
from waveuc.slab_forms import (
    SlabSpace,
    assemble_A,
    assemble_dfb_extras,
    assemble_dual_interface_mass,
    assemble_dual_stabilizer,
    assemble_embedding,
    assemble_primal_stabilizers,
    boundary_flux_matrix,
    boundary_penalty_matrix,
    gradient_jump_matrix,
)
from waveuc.spacetime_system import SpaceTimeSystem

# (preset, k = q, kstar = qstar, slabs); every system has 2 * slabs elements
SYSTEMS = [("gcc1d", 1, 1, 16), ("nogcc1d", 1, 1, 32), ("gcc1d", 2, 2, 4),
           ("gcc1d", 2, 2, 48), ("gcc1d", 3, 3, 4), ("nogcc1d", 2, 2, 2),
           ("gcc1d", 2, 1, 4)]
SOLVES = ([("gcc1d", 2, n, "mf") for n in (12, 24, 48)]
          + [("nogcc1d", 1, n, "mf") for n in (8, 16, 32)]
          + [("gcc1d", 1, 16, p)
             for p in ("mf", "ml", "block", "dfb", "none")])


def _config(preset, k, n_slabs, **extra):
    return PRESETS[preset].make_config(**{
        "k": k, "q": k, "kstar": k, "qstar": k, "n_slabs": n_slabs,
        "n_elems": 2 * n_slabs, **extra})


def _put_csr(out, key, form):
    """The CSR arrays of form, a scipy matrix or waveuc's Triplets."""
    matrix = form.tocsr()
    out[key + "-data"] = matrix.data
    out[key + "-indices"] = matrix.indices
    out[key + "-indptr"] = matrix.indptr


def dump_factorizations(out, key, M):
    """lu, piv, kl and ku of every distinct LU that M keeps: M.lus in march
    order (lus0 the first slab's, lus1 the interior one), M.lu and
    M.sstar_lu."""
    kept = {}
    for i, lu in enumerate({id(lu): lu for lu in getattr(M, "lus", [])}
                           .values()):
        kept[f"lus{i}"] = lu
    for name in ("lu", "sstar_lu"):
        if hasattr(M, name):
            kept[name] = getattr(M, name)
    for name, lu in kept.items():
        out[f"{key}-{name}-lu"] = lu.lu
        out[f"{key}-{name}-piv"] = lu.piv
        out[f"{key}-{name}-kl"] = np.array(lu.kl)
        out[f"{key}-{name}-ku"] = np.array(lu.ku)


def dump_kept(out, key, M):
    """The matrices M keeps beside its LUs: the sweep's coupling (mf, ml),
    ml's embed and embed_T, and the carried columns of dfb's two sweeps."""
    for name in ("coupling", "embed", "embed_T"):
        if getattr(M, name, None) is not None:
            _put_csr(out, f"{key}-{name}", getattr(M, name))
    for name in ("forward", "backward"):
        if hasattr(M, name):
            out[f"{key}-{name}-carried"] = getattr(M, name).carried


def dump_blocks(out, key, s):
    """The forms the preconditioners sum their blocks from, beside the
    system's own blocks."""
    # the parts without stored zeros: no block is built from them but their
    # sum, which drops them, and G keeps those of its second-derivative
    # spatial factors (all zero at k = 1)
    for name, block in assemble_primal_stabilizers(s.primal).items():
        block = block.tocsr().copy()
        block.eliminate_zeros()
        _put_csr(out, f"{key}-stabilizer_{name}", block)
    _put_csr(out, f"{key}-dual_interface_mass",
             assemble_dual_interface_mass(s.dual))
    cfg = s.config
    if (cfg.kstar, cfg.qstar) == (cfg.k, cfg.q):
        extras = assemble_dfb_extras(s.primal, s.dual, s.data,
                                     cfg.resolved_lambda())
        for name, block in extras.items():
            _put_csr(out, f"{key}-dfb_{name}", block)
    # the light sweep's dual pair
    light = SlabSpace(s.mesh, 1, 0, cfg.dt)
    _put_csr(out, f"{key}-ml_A", assemble_A(s.primal, light))
    _put_csr(out, f"{key}-ml_Sstar", assemble_dual_stabilizer(light))


def dump_systems(out):
    for preset, k, kstar, n_slabs in SYSTEMS:
        s = SpaceTimeSystem(_config(preset, k, n_slabs, kstar=kstar,
                                    qstar=kstar))
        key = f"{preset}-k{k}-N{n_slabs}"
        kinds = ["mf", "ml", "dfb", "block"]
        if kstar != k:
            # dfb refuses unequal orders
            key = f"{preset}-k{k}-kstar{kstar}-N{n_slabs}"
            kinds.remove("dfb")
        for name in ("A_pd", "A_pd_T", "Sh", "Sstar", "Momega",
                     "jump_weight", "jump_weight_T"):
            _put_csr(out, f"{key}-{name}", getattr(s, name))
        for name, block in s.jump.items():
            _put_csr(out, f"{key}-jump_{name}", block)
        dump_blocks(out, key, s)
        out[key + "-rhs"] = s.assemble_rhs(PRESETS[preset].u)
        r = np.random.default_rng(2024).standard_normal(s.ndof)
        out[key + "-apply"] = s.apply(r)
        out[key + "-trace"] = s.trace
        out[key + "-trace_jumps"] = s.trace_jumps(s.slab_view(r)[:, s.trace].T)
        for kind in kinds:
            M = build_preconditioner(s, kind)
            dump_factorizations(out, f"{key}-{kind}", M)
            dump_kept(out, f"{key}-{kind}", M)
            out[f"{key}-{kind}"] = M.apply(r)
            defect = getattr(M, "defect", None)
            if defect is not None:
                out[f"{key}-{kind}-defect_rows"] = defect.rows
                out[f"{key}-{kind}-defect"] = defect(r)
                v = np.random.default_rng(7).standard_normal(len(defect.rows))
                out[f"{key}-{kind}-defect_em"] = defect.em(v)


def dump_forms(out):
    degrees = (1, 2, 3)
    for n_elems in (1, 2, 5):
        mesh = build_interval_mesh(0.0, 1.0, n_elems)
        for k in degrees:
            fine = SpatialBasis(k)
            _put_csr(out, f"J-n{n_elems}-k{k}", gradient_jump_matrix(mesh, fine))
            for kc in degrees:
                coarse = SpatialBasis(kc)
                tag = f"n{n_elems}-k{k}-{kc}"
                _put_csr(out, f"P-{tag}",
                         boundary_penalty_matrix(mesh, fine, coarse))
                _put_csr(out, f"F-{tag}",
                         boundary_flux_matrix(mesh, fine, coarse))
                if kc <= k:
                    # spatial degrees k over kc, temporal k over kc - 1
                    # (ml's sweep embeds orders (1, 0))
                    _put_csr(out, f"embedding-{tag}", assemble_embedding(
                        SlabSpace(mesh, k, k, 1.0 / n_elems),
                        SlabSpace(mesh, kc, kc - 1, 1.0 / n_elems)))


def dump_solves(out):
    solve = cli.gmres
    last = {}

    def capture(apply_op, b, precond, *args, **kwargs):
        # count the preconditioner applies of the solve
        last["applies"] = 0
        if precond is not None:
            apply = precond.apply

            def counted(r):
                last["applies"] += 1
                return apply(r)

            precond.apply = counted
        last["x"], last["report"] = solve(apply_op, b, precond, *args,
                                          **kwargs)
        return last["x"], last["report"]

    cli.gmres = capture
    try:
        for preset, k, n_slabs, precond in SOLVES:
            cfg = _config(preset, k, n_slabs, precond=precond, tol=1e-7,
                          maxiter=3000).validate()
            with tempfile.TemporaryDirectory() as tmp:
                log = os.path.join(tmp, "resid.log")
                row, report, errors = cli.run_solve(cfg, PRESETS[preset],
                                                    residual_log=log)
                with open(log) as fh:
                    log_text = fh.read()
            del row["walltime_s"]
            key = f"{preset}-k{k}-N{n_slabs}-{precond}-solve"
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


def compare(path_a, path_b):
    """Print every array that differs between the dumps; True if none."""
    with np.load(path_a) as a, np.load(path_b) as b:
        keys_a, keys_b = set(a.files), set(b.files)
        for key in sorted(keys_a ^ keys_b):
            print(f"only in {path_a if key in keys_a else path_b}: {key}")
        differ = [key for key in sorted(keys_a & keys_b)
                  if a[key].dtype != b[key].dtype
                  or a[key].shape != b[key].shape
                  or a[key].tobytes() != b[key].tobytes()]
        for key in differ:
            x, y = a[key], b[key]
            if (x.dtype != y.dtype and x.shape == y.shape
                    and np.array_equal(x, y)):
                print(f"differs in dtype only ({x.dtype} -> {y.dtype}): {key}")
            else:
                change = relative_change(x, y)
                print(f"differs: {key}" + ("" if change is None else
                      f" (max|a - b| / max|a| = {change:.3e})"))
        same = len(keys_a & keys_b) - len(differ)
        print(f"{same} of {len(keys_a | keys_b)} outputs bitwise identical")
        return not differ and keys_a == keys_b


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="dump to this .npz file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two dumps instead")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.out is None:
        parser.error("give an output file or --compare A B")
    out = {}
    dump_systems(out)
    dump_forms(out)
    dump_solves(out)
    np.savez(args.out, **out)
    print(f"{len(out)} outputs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
