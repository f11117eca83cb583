"""Dump the assembled and solved outputs of waveuc, or compare two dumps
bit for bit.

    PYTHONPATH=<tree>/src python3 tools/dump_outputs.py OUT.npz
    PYTHONPATH=src python3 tools/dump_outputs.py --compare A.npz B.npz

A dump holds, for a few fixed systems (one of them with dual orders below
the primal ones), the CSR arrays of every assembled matrix: the slab
blocks and the transposed wave operator A_pd_T, the four primal
stabilizer parts beside their sum, the jump blocks (s.jump, which a
package may build only when it is read) and, where the package has them,
their restriction to the slab traces (the four trace_jump blocks, or
jump_weight and its transpose), the dual interface mass, the
forward-backward split's extra blocks, the light sweep's reduced wave
operator, dual stabilizer and degree embedding, every block a
preconditioner assembles to factor, and every matrix a preconditioner
keeps: the sweeps' coupling (mf, ml) and ml's embed and embed_T.  A form
is stored as the CSR matrix of its tocsr(), which a package's form has
whether it returns a scipy matrix or triplets.  A block handed to the band
step as triplets, whose entries at one place are summed in their order,
is summed so here too before it is stored as CSR.
It holds the lu, piv, kl and ku of every factorization a preconditioner
keeps (M.lus, M.lu, M.sstar_lu), so an LU whose block is never assembled
is compared too, and the carried columns and carry blocks K of dfb's two
sweeps.  Beside them it
holds the right-hand side, one operator apply and, where the package has them, the slab trace
rows and the jump terms on the traces of the same vector; the apply of each
slab-marching preconditioner and, for each one that has a defect, its rows,
its action and (where the package has it) its action after the
preconditioner on a vector that lives on those rows; the point-evaluation
forms (gradient jump, boundary penalty and flux, degree embedding) on
meshes of 1, 2 and 5 elements; and the iterates, residual histories, CSV
rows, residual logs, error norms and preconditioner apply counts of the
benchmark's solves.  Only names present in every version of the package are
used, or their outputs are skipped where they are missing, so two trees can
be dumped with the same script and compared; --compare exits 1 unless both
files hold the same outputs with the same bytes.  An array whose values
are equal but whose dtype differs is reported as differing in dtype only;
for any other numeric array that differs at equal shape it also prints
max|a - b| / max|a| over the positions finite in both, so that an intended
rounding change shows its size.
The solves take about a minute on a 2-core machine.
"""

import argparse
import os
import sys
import tempfile

import numpy as np
import scipy.sparse as sp

import waveuc.cli as cli
import waveuc.precond as precond
import waveuc.slab_forms as slab_forms
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
    assemble_primal_stabilizers,
    boundary_flux_matrix,
    boundary_penalty_matrix,
    gradient_jump_matrix,
)
from waveuc.spacetime_system import SpaceTimeSystem

# the spatial degree embedding: precond's in older trees, slab_forms' in newer
_spatial_embedding = getattr(precond, "_spatial_embedding", None) or getattr(
    slab_forms, "_spatial_embedding")

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


def _as_csr(matrix):
    """A scipy sparse matrix as CSR, or triplets (rows, cols, vals, shape)
    as the CSR matrix that sums the entries at one place in their order,
    from the first one on, as scipy's COO conversion sums them (-0.0, the
    exact identity of +, starts each sum)."""
    if sp.issparse(matrix):
        return matrix.tocsr()
    rows, cols, vals, shape = matrix
    keys = rows.astype(np.int64) * shape[1] + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.full(np.count_nonzero(first), -0.0)
    np.add.at(sums, np.cumsum(first) - 1, vals[order])
    r, c = np.divmod(keys[first], shape[1])
    return sp.csr_matrix((sums, (r, c)), shape=shape)


def _put_csr(out, key, matrix):
    matrix = _as_csr(matrix)
    out[key + "-data"] = matrix.data
    out[key + "-indices"] = matrix.indices
    out[key + "-indptr"] = matrix.indptr


def _build_recording(system, kind):
    """The preconditioner of kind, and each block it assembles to factor,
    by the label of its factorization.  Where the package puts a block into
    a band (_Band) before _BandLU factors it, a band made from another one
    (an interior slab's) has no assembled block and is not recorded."""
    factored = {}
    saved = {name: getattr(precond, name) for name in ("_Band", "_BandLU")
             if hasattr(precond, name)}
    band_lu = saved["_BandLU"]
    if "_Band" in saved:
        # each band made from a block, kept alive so that no later band
        # takes its id
        assembled = {}

        class Band(saved["_Band"]):
            def __init__(self, matrix, perm):
                super().__init__(matrix, perm)
                assembled[id(self)] = (self, matrix)

        class Recording(band_lu):
            def __init__(self, band, label):
                if id(band) in assembled:
                    factored[label] = assembled[id(band)][1]
                super().__init__(band, label)

        precond._Band = Band
    else:
        class Recording(band_lu):
            def __init__(self, matrix, perm, label):
                factored[label] = matrix
                super().__init__(matrix, perm, label)

    precond._BandLU = Recording
    try:
        return build_preconditioner(system, kind), factored
    finally:
        for name, value in saved.items():
            setattr(precond, name, value)


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
    ml's embed and embed_T, and for each of dfb's sweeps its carried
    columns and, for each run of slabs that shares an LU (in march order),
    the carry block K of that LU where it has one."""
    if hasattr(M, "coupling"):
        _put_csr(out, f"{key}-coupling", M.coupling)
    if getattr(M, "embed", None) is not None:
        _put_csr(out, f"{key}-embed", M.embed)
        _put_csr(out, f"{key}-embed_T", M.embed_T)
    for name in ("forward", "backward"):
        sweep = getattr(M, name, None)
        if sweep is None:
            continue
        out[f"{key}-{name}-carried"] = sweep.carried
        for i, (lu, _, _) in enumerate(sweep._runs):
            if id(lu) in sweep._K:
                out[f"{key}-{name}-K{i}"] = sweep._K[id(lu)][0]


def dump_blocks(out, key, s):
    """The assembled matrices beside the system's own blocks."""
    # the parts without stored zeros: no block is built from them but their
    # sum, and versions that summed them from scipy's kron stored the zeros
    # of its dense-block path, taken for a spatial factor more than half
    # full (the gradient jump at k = 2 on 4 elements)
    for name, block in assemble_primal_stabilizers(s.primal).items():
        block = block.tocsr().copy()
        block.eliminate_zeros()
        _put_csr(out, f"{key}-stabilizer_{name}", block)
    for name, block in getattr(s, "trace_jump", {}).items():
        _put_csr(out, f"{key}-trace_jump_{name}", block)
    for name in ("jump_weight", "jump_weight_T"):
        if hasattr(s, name):
            _put_csr(out, f"{key}-{name}", getattr(s, name))
    _put_csr(out, f"{key}-dual_interface_mass",
             assemble_dual_interface_mass(s.dual).tocsr())
    cfg = s.config
    if (cfg.kstar, cfg.qstar) == (cfg.k, cfg.q):
        extras = assemble_dfb_extras(s.primal, s.dual, s.data,
                                     cfg.resolved_lambda())
        for name, block in extras.items():
            _put_csr(out, f"{key}-dfb_{name}", block.tocsr())
    # the light sweep's dual pair
    light = SlabSpace(s.mesh, 1, 0, cfg.dt)
    _put_csr(out, f"{key}-ml_A", assemble_A(s.primal, light).tocsr())
    _put_csr(out, f"{key}-ml_Sstar", assemble_dual_stabilizer(light).tocsr())


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
        for name in ("A_pd", "A_pd_T", "Sh", "Sstar", "Momega"):
            _put_csr(out, f"{key}-{name}", getattr(s, name))
        for name, block in s.jump.items():
            _put_csr(out, f"{key}-jump_{name}", block)
        dump_blocks(out, key, s)
        out[key + "-rhs"] = s.assemble_rhs(PRESETS[preset].u)
        r = np.random.default_rng(2024).standard_normal(s.ndof)
        out[key + "-apply"] = s.apply(r)
        if hasattr(s, "trace_jumps"):
            out[key + "-trace"] = s.trace
            out[key + "-trace_jumps"] = s.trace_jumps(
                s.slab_view(r)[:, s.trace].T)
        for kind in kinds:
            M, factored = _build_recording(s, kind)
            for label, block in factored.items():
                tag = label.replace(",", "").replace(" ", "_")
                _put_csr(out, f"{key}-{kind}-factored_{tag}", block)
            dump_factorizations(out, f"{key}-{kind}", M)
            dump_kept(out, f"{key}-{kind}", M)
            out[f"{key}-{kind}"] = M.apply(r)
            defect = getattr(M, "defect", None)
            if defect is not None:
                out[f"{key}-{kind}-defect_rows"] = defect.rows
                out[f"{key}-{kind}-defect"] = defect(r)
                if hasattr(defect, "em"):
                    v = np.random.default_rng(7).standard_normal(
                        len(defect.rows))
                    out[f"{key}-{kind}-defect_em"] = defect.em(v)


def dump_forms(out):
    degrees = (1, 2, 3)
    for n_elems in (1, 2, 5):
        mesh = build_interval_mesh(0.0, 1.0, n_elems)
        for k in degrees:
            fine = SpatialBasis(k)
            _put_csr(out, f"J-n{n_elems}-k{k}",
                     gradient_jump_matrix(mesh, fine).tocsr())
            for kc in degrees:
                coarse = SpatialBasis(kc)
                tag = f"n{n_elems}-k{k}-{kc}"
                _put_csr(out, f"P-{tag}",
                         boundary_penalty_matrix(mesh, fine, coarse).tocsr())
                _put_csr(out, f"F-{tag}",
                         boundary_flux_matrix(mesh, fine, coarse).tocsr())
                if kc <= k:
                    _put_csr(out, f"E-{tag}",
                             _spatial_embedding(mesh, fine, coarse).tocsr())


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


def _relative_change(a, b):
    """max|a - b| / max|a| over the positions where both of two numeric
    arrays of one shape are finite (the unset restricted error norms are
    NaN in both), as a suffix for the report line; empty for any other
    pair."""
    if (a.shape != b.shape
            or not all(np.issubdtype(x.dtype, np.number) for x in (a, b))):
        return ""
    a, b = a.astype(float), b.astype(float)
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.any():
        return ""
    scale = np.abs(a[finite]).max()
    diff = np.abs(a[finite] - b[finite]).max()
    return f" (max|a - b| / max|a| = {diff / scale if scale else np.inf:.3e})"


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
                print(f"differs: {key}{_relative_change(x, y)}")
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
