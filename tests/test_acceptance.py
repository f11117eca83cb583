"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities.  Tolerances are fixed here and must not be loosened
to force a pass."""

import math

import numpy as np
import pytest

from waveuc.cli import run_solve
from waveuc.config import PRESETS
from waveuc.krylov import GmresConfig, gmres
from waveuc.postproc import eoc, lift
from waveuc.precond import MonolithicForward, build_preconditioner
from waveuc.slab_forms import (
    SlabSpace,
    assemble_dual_interface_mass,
    assemble_dual_stabilizer,
    assemble_primal_stabilizers,
)
from waveuc.mesh import build_interval_mesh
from waveuc.spacetime_system import SpaceTimeSystem

from conftest import make_system


def announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def sweep(preset_name, k, q, levels):
    preset = PRESETS[preset_name]
    out = []
    for n_slabs in levels:
        cfg = preset.make_config(
            k=k, q=q, kstar=k, qstar=q, n_elems=2 * n_slabs, n_slabs=n_slabs
        )
        row, report, errors = run_solve(cfg, preset)
        assert report.converged, f"unconverged at N={n_slabs}"
        out.append(errors)
    return out


@pytest.fixture(scope="module")
def gcc_sweep_k1():
    return sweep("gcc1d", 1, 1, (8, 16, 32, 64))


@pytest.fixture(scope="module")
def gcc_sweep_k2():
    return sweep("gcc1d", 2, 2, (8, 16, 32, 64))


def test_criterion_1_dense_oracle_equivalence():
    s = make_system(n_elems=4, n_slabs=2, k=1, q=1, kstar=1, qstar=1)
    D = s.dense_matrix()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(s.ndof)
        yd = D @ x
        rel = np.linalg.norm(s.apply(x) - yd) / np.linalg.norm(yd)
        worst = max(worst, rel)
    assert worst <= 1e-12
    announce("1 dense-oracle equivalence",
             f"20 random vectors, max rel err {worst:.2e} <= 1e-12")


def test_criterion_2_norm_identity():
    s = make_system(n_elems=4, n_slabs=3, k=1, q=1, kstar=1, qstar=1)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(s.ndof)
        xn = x.copy()
        s.slab_view(xn)[:, s.n_primal :] *= -1
        lhs = s.apply(xn) @ x
        total_sq = s.triple_norm(x).total ** 2
        worst = max(worst, abs(lhs - total_sq) / total_sq)
    assert worst <= 1e-10
    announce("2 norm identity", f"max rel deviation {worst:.2e} <= 1e-10")


def test_criterion_3_single_slab_exactness():
    iters = {}
    for (k, q) in ((1, 1), (2, 1), (2, 2)):
        s = make_system(n_elems=4, n_slabs=1, k=k, q=q, kstar=k, qstar=q)
        b = s.assemble_rhs(PRESETS["gcc1d"].u)
        x, report = gmres(s.apply, b, MonolithicForward(s), GmresConfig())
        assert report.converged and report.iterations == 1, (k, q)
        iters[(k, q)] = report.iterations
    announce("3 N=1 exact preconditioner",
             f"1 GMRes iteration for degree pairs {sorted(iters)}")


def test_criterion_4_convergence_rates(gcc_sweep_k1, gcc_sweep_k2):
    details = []
    for (k, q), errs, ut_floor in (
        ((1, 1), gcc_sweep_k1, 0.9),
        ((2, 2), gcc_sweep_k2, 1.8),
    ):
        rate_ut = eoc([e.err_L2L2_ut for e in errs])[-1]
        rate_u = eoc([e.err_LinfL2_u for e in errs])[-1]
        assert rate_ut >= ut_floor, (k, q, rate_ut)
        assert rate_u >= 0.9 * min(k, q), (k, q, rate_u)
        details.append(
            f"k=q={k}: eoc(ut)={rate_ut:.2f}>={ut_floor}, "
            f"eoc(u)={rate_u:.2f}>={0.9 * min(k, q):.2f}"
        )
    announce("4 convergence rates", "; ".join(details))


def test_criterion_5_preconditioner_solution_equivalence():
    s = make_system(n_elems=16, n_slabs=8, k=1, q=1, kstar=1, qstar=1)
    b = s.assemble_rhs(PRESETS["gcc1d"].u)
    sols = {}
    for kind in ("block", "mf", "ml", "dfb"):
        M = build_preconditioner(s, kind)
        x, report = gmres(s.apply, b, M, GmresConfig(tol=1e-10))
        assert report.converged, kind
        sols[kind] = x
    scale = s.triple_norm(sols["mf"]).total
    worst = 0.0
    kinds = sorted(sols)
    for i, a in enumerate(kinds):
        for bkind in kinds[i + 1 :]:
            rel = s.triple_norm(sols[a] - sols[bkind]).total / scale
            worst = max(worst, rel)
    assert worst <= 1e-5
    announce("5 preconditioner solution equivalence",
             f"pairwise rel triple-norm diff <= {worst:.2e} <= 1e-5")


def test_criterion_6_iteration_orderings():
    preset = PRESETS["gcc1d"]

    def iters_for(kind, n_slabs, **gmres):
        cfg = preset.make_config(
            k=1, q=1, kstar=1, qstar=1, n_elems=2 * n_slabs, n_slabs=n_slabs,
            precond=kind, **gmres,
        )
        _, report, _ = run_solve(cfg, preset)
        return report.iterations, report.converged

    ndof = make_system(n_elems=32, n_slabs=16).ndof
    it_mf, _ = iters_for("mf", 16)
    it_ml16, _ = iters_for("ml", 16)
    it_block, _ = iters_for("block", 16)
    # capped at half of ndof: the assertion below holds for the capped
    # solve exactly when it holds for the uncapped one, since the cap only
    # stops a solve that has reached 0.5 * ndof iterations unconverged
    it_none, none_conv = iters_for("none", 16, maxiter=math.ceil(0.5 * ndof))
    it_ml32, _ = iters_for("ml", 32)

    assert it_mf <= it_ml16
    assert it_mf < it_block
    assert it_none >= 0.5 * ndof or not none_conv
    assert it_ml32 >= 1.5 * it_ml16
    announce(
        "6 iteration orderings",
        f"N=16: mf={it_mf} <= ml={it_ml16} < block={it_block}, "
        f"none={it_none} >= {0.5 * ndof:.0f}; ml growth "
        f"{it_ml32}/{it_ml16} = {it_ml32 / it_ml16:.2f} >= 1.5",
    )


def test_criterion_7_no_gcc_restricted_convergence():
    errs = sweep("nogcc1d", 2, 2, (8, 16, 32, 64))
    rate_restricted = eoc([e.err_L2L2_ut_restricted for e in errs])[-1]
    rate_full = eoc([e.err_L2L2_ut for e in errs])[-1]
    assert rate_restricted >= 1.5
    assert rate_full <= 1.0
    announce(
        "7 no-GCC restricted convergence",
        f"restricted eoc {rate_restricted:.2f} >= 1.5, "
        f"full-domain eoc {rate_full:.2f} <= 1.0",
    )


def test_criterion_8_lifting():
    mesh = build_interval_mesh(8)
    rng = np.random.default_rng(3)
    worst = 0.0
    for q in (1, 2):
        space = SlabSpace(mesh, 2, q, dt=0.125)
        u = rng.standard_normal((4, space.n_modes, space.n_x))
        sol = lift(space, u)
        # each slab's end against the next slab's start
        gap = np.abs(sol.coeffs_at(1.0)[:-1] - sol.coeffs_at(0.0)[1:]).max()
        worst = max(worst, gap)
    assert worst <= 1e-12

    # blending weight norms via quadrature on a unit downward jump
    dt = 0.125
    space = SlabSpace(mesh, 1, 1, dt=dt)
    u = np.zeros((2, 2, space.n_x))
    u[0] = 1.0
    sol = lift(space, u)
    from waveuc.basis import gauss_rule

    rule = gauss_rule(4)
    # the lift on slab 1 at the first spatial node, and its time derivative
    theta, dtheta = (sol.coeffs_at(rule.points, deriv)[1, :, 0]
                     for deriv in (0, 1))
    sq = dt * rule.weights @ theta**2
    dsq = dt * rule.weights @ dtheta**2
    err_theta = abs(math.sqrt(sq) - math.sqrt(dt / 3))
    err_dtheta = abs(math.sqrt(dsq) - dt**-0.5)
    assert err_theta <= 1e-13 and err_dtheta <= 1e-13
    announce(
        "8 lifting",
        f"max interface gap {worst:.2e} <= 1e-12, theta-norm errors "
        f"{err_theta:.2e}/{err_dtheta:.2e} <= 1e-13",
    )


def test_criterion_9_stabilizer_structure():
    mesh = build_interval_mesh(4)
    space = SlabSpace(mesh, 2, 1, dt=0.25)
    parts = {name: part.tocsr()
             for name, part in assemble_primal_stabilizers(space).items()}
    for name, mat in parts.items():
        assert abs(mat - mat.T).max() <= 1e-12, name
    min_sh = np.linalg.eigvalsh(parts["Sh"].toarray()).min()
    assert min_sh >= -1e-10

    Sd = assemble_dual_stabilizer(space).tocsr()
    assert abs(Sd - Sd.T).max() <= 1e-12
    min_sd = np.linalg.eigvalsh(Sd.toarray()).min()
    assert min_sd > 0
    Ei = assemble_dual_interface_mass(space).tocsr()
    assert abs(Ei - Ei.T).max() <= 1e-12
    assert np.linalg.eigvalsh(Ei.toarray()).min() >= -1e-12

    # the relaxed interface coupling is block-lower-triangular over slabs
    s = make_system(n_elems=4, n_slabs=3)
    D = s.dense_matrix()
    Mm = s.jump["minus"].toarray()
    C = s.jump["cross"].toarray()
    # D's slab blocks, as views: blocks[i, :, j] couples slab i to slab j
    blocks = D.reshape(s.n_slabs, s.slab_size, s.n_slabs, s.slab_size)
    p = slice(s.n_primal)
    for n in range(1, s.n_slabs):
        blocks[n - 1, p, n - 1, p] -= Mm
        blocks[n - 1, p, n, p] += C.T
    for i in range(s.n_slabs):
        for j in range(i + 1, s.n_slabs):
            assert np.all(blocks[i, :, j] == 0)
    announce(
        "9 stabilizer structure",
        f"all stabilizer blocks symmetric, min eig(Sh)={min_sh:.2e} >= -1e-10, "
        f"min eig(S*)={min_sd:.2e} > 0, relaxed system block-lower-triangular",
    )
