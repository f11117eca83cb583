import csv
import os
import re

import numpy as np
import pytest

from waveuc import cli
from waveuc.cli import CSV_HEADER, build_config, main, make_parser
from waveuc.config import PRESETS, DiscretizationConfig, default_lambda
from waveuc.krylov import GmresConfig, SolveReport
from waveuc.postproc import ErrorReport


def read_rows(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_HEADER
        return list(reader)


# -- configuration ----------------------------------------------------------


def test_presets_match_experiment_setups():
    gcc = PRESETS["gcc1d"]
    # every experiment is posed on [0, 1] over (0, 1/2)
    for preset in PRESETS.values():
        cfg = preset.make_config()
        mesh = cfg.mesh()
        assert (mesh.vertices[0], mesh.vertices[-1], cfg.T) == (0.0, 1.0, 0.5)
        assert cfg.omega == preset.omega
    assert gcc.omega == ((0.0, 0.25), (0.75, 1.0))
    nogcc = PRESETS["nogcc1d"]
    assert nogcc.omega == ((0.0, 0.25),)
    assert nogcc.restricted_region is not None
    x = np.linspace(0, 1, 5)
    assert gcc.u(0.0, x) == pytest.approx(np.sin(np.pi * x))
    assert gcc.dt_u(0.0, x) == pytest.approx(np.zeros_like(x))
    assert gcc.dt_u(0.25, x) == pytest.approx(
        -np.pi * np.sin(np.pi * 0.25) * np.sin(np.pi * x)
    )


def test_default_lambda_quadratic_in_degree():
    assert default_lambda(1) == 10.0
    assert default_lambda(2) == 40.0
    cfg = DiscretizationConfig(k=2, kstar=2)
    assert cfg.resolved_lambda() == 40.0
    assert DiscretizationConfig(lam=7.5).resolved_lambda() == 7.5


def test_config_validation_errors():
    with pytest.raises(ValueError):
        DiscretizationConfig(k=0).validate()
    with pytest.raises(ValueError):
        DiscretizationConfig(qstar=-1).validate()
    with pytest.raises(ValueError):
        DiscretizationConfig(precond="cholesky").validate()
    with pytest.raises(ValueError):
        # slab/mesh aspect ratio far outside the supported window
        DiscretizationConfig(n_elems=1000, n_slabs=2).validate()
    with pytest.raises(ValueError):
        DiscretizationConfig(precond="dfb", k=2, q=1, kstar=1, qstar=1).validate()
    with pytest.raises(ValueError, match="mesh vertex"):
        # 10 elements: the data region's endpoint 0.25 is no vertex
        DiscretizationConfig(n_elems=10, n_slabs=5).validate()


@pytest.mark.parametrize("degree", ["k", "q", "kstar", "qstar"])
def test_config_rejects_degrees_above_the_basis_caps(degree):
    with pytest.raises(ValueError, match="degrees above 3 are not supported"):
        DiscretizationConfig(**{degree: 4}).validate()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("tol", INF), ("tol", NAN), ("lam", INF), ("lam", NAN),
    ("T", INF), ("T", NAN), ("T", -INF), ("lam", -INF),
    ("omega", ((0.0, INF),)), ("omega", ((NAN, 0.25),)),
])
def test_config_rejects_non_finite(field, value):
    name = "omega[0]" if field == "omega" else field
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be finite"):
        DiscretizationConfig(**{field: value}).validate()


@pytest.mark.parametrize("tol", [INF, NAN])
def test_gmres_config_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="finite"):
        GmresConfig(tol=tol).validate()


def test_non_finite_tol_flag_exits_1(capsys):
    code = main(["solve", "--slabs", "4", "--elems", "8", "--tol", "inf"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "tol" in line


# -- solve command ----------------------------------------------------------


def test_solve_writes_csv_row(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "solve", "--preset", "gcc1d", "--slabs", "4", "--elems", "8",
        "--out", str(out),
    ])
    assert code == 0
    (row,) = read_rows(out)
    assert row["preset"] == "gcc1d"
    assert row["precond"] == "mf"
    assert (row["k"], row["q"], row["kstar"], row["qstar"]) == ("1",) * 4
    assert row["converged"] == "true"
    assert int(row["iters"]) >= 1
    assert float(row["err_LinfL2_u"]) > 0
    # restricted columns stay empty without a restricted region
    assert row["err_LinfL2_u_Bt"] == "" and row["err_L2L2_ut_Bt"] == ""


def test_solve_nogcc_fills_restricted_columns(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "solve", "--preset", "nogcc1d", "--slabs", "4", "--elems", "8",
        "--out", str(out),
    ])
    assert code == 0
    (row,) = read_rows(out)
    assert float(row["err_L2L2_ut_Bt"]) > 0
    assert float(row["err_L2L2_ut_Bt"]) <= float(row["err_L2L2_ut"])


def test_solve_rows_deterministic(tmp_path):
    args = ["solve", "--slabs", "4", "--elems", "8"]
    rows = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        rows.append(read_rows(out)[0])
    for key in CSV_HEADER:
        if key == "walltime_s":
            continue
        assert rows[0][key] == rows[1][key], key


def test_invalid_config_exits_with_error(tmp_path, capsys):
    code = main(["solve", "--precond", "dfb", "--k", "2", "--kstar", "1",
                 "--slabs", "4", "--elems", "8"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unconverged_solve_exits_2(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "solve", "--slabs", "4", "--elems", "8", "--precond", "none",
        "--maxiter", "5", "--out", str(out),
    ])
    assert code == 2
    (row,) = read_rows(out)
    assert row["converged"] == "false"
    assert row["iters"] == "5"


def test_arnoldi_breakdown_exits_1(capsys):
    # the huge boundary penalty makes the first Arnoldi vector NaN
    code = main(["solve", "--slabs", "2", "--elems", "4", "--precond", "dfb",
                 "--lambda", "1e308"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: Arnoldi breakdown at iteration 1 ")


@pytest.mark.parametrize("precond, iters", [("none", 80), ("mf", 11)])
def test_exhausted_krylov_space_exits_2(tmp_path, precond, iters):
    # tol 1e-300 is never met: the solve runs until the Krylov space is the
    # whole space it lives in (80 unknowns, or 10 defect rows plus span{b})
    out = tmp_path / "run.csv"
    code = main(["solve", "--slabs", "2", "--elems", "4", "--precond",
                 precond, "--tol", "1e-300", "--out", str(out)])
    assert code == 2
    (row,) = read_rows(out)
    assert (row["converged"], row["iters"]) == ("false", str(iters))


def test_residual_log(tmp_path):
    out = tmp_path / "run.csv"
    log = tmp_path / "resid.log"
    main(["solve", "--slabs", "4", "--elems", "8", "--out", str(out),
          "--residual-log", str(log)])
    lines = log.read_text().strip().splitlines()
    (row,) = read_rows(out)
    assert len(lines) == int(row["iters"])
    first = lines[0].split(",")
    assert int(first[0]) == 1
    float(first[1])
    # every tenth line also carries the recomputed true residual
    for line in lines[9::10]:
        assert len(line.split(",")) == 3


def test_omega_flag_and_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "slabs = 4\nelems = 8\nprecond = block\ntol = 1e-6\n# comment\n"
    )
    out = tmp_path / "run.csv"
    code = main([
        "solve", "--config", str(cfg_file), "--precond", "mf",
        "--omega", "0,0.25;0.75,1", "--out", str(out),
    ])
    assert code == 0
    (row,) = read_rows(out)
    # the flag overrides the file
    assert row["precond"] == "mf"
    assert row["N"] == "4"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mesh_size = 8\n")
    assert main(["solve", "--config", str(cfg_file)]) == 1


@pytest.mark.parametrize("line,names", [
    ("omega = 0.1", ["omega", "0.1"]),
    ("omega = a,b", ["omega", "a,b"]),
    ("omega = 0,0.25;", ["omega", "0,0.25;"]),
    ("k = x", ["k", "'x'"]),
    ("omega 0.1", ["omega 0.1"]),
], ids=["omega-one-value", "omega-not-numbers", "omega-empty-interval",
        "int-not-a-number", "no-equals"])
def test_malformed_config_value_names_its_key(tmp_path, capsys, line, names):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"slabs = 4\n{line}\n")
    assert main(["solve", "--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (message,) = captured.err.splitlines()
    assert message.startswith("error:")
    for name in names:
        assert name in message


# -- sweep commands ---------------------------------------------------------


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "convergence", "--preset", "gcc1d", "--levels", "4,8",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert [r["N"] for r in rows] == ["4", "8"]
    # h = dt at every level
    for r in rows:
        assert float(r["h"]) == pytest.approx(float(r["dt"]))
    errs = [float(r["err_L2L2_ut"]) for r in rows]
    assert errs[1] < errs[0]
    assert "eoc err_L2L2_ut" in capsys.readouterr().err


def test_iters_command(tmp_path):
    out = tmp_path / "iters.csv"
    code = main([
        "iters", "--precond-list", "mf,block", "--slab-list", "4,8",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert [(r["precond"], r["N"]) for r in rows] == [
        ("mf", "4"), ("mf", "8"), ("block", "4"), ("block", "8"),
    ]
    by = {(r["precond"], r["N"]): int(r["iters"]) for r in rows}
    assert by[("mf", "8")] <= by[("block", "8")]


@pytest.fixture
def solved(monkeypatch):
    """Configurations the CLI hands to run_solve, recorded instead of
    solved; each fake solve converges with errors of size 1/N."""
    configs = []

    def fake_run_solve(config, preset, residual_log=None):
        configs.append(config)
        row = dict.fromkeys(CSV_HEADER, "")
        row.update(preset=preset.name, N=config.n_slabs, h=config.h,
                   dt=config.dt, precond=config.precond)
        return (row, SolveReport(iterations=1, converged=True),
                ErrorReport(1.0 / config.n_slabs, 1.0 / config.n_slabs))

    monkeypatch.setattr("waveuc.cli.run_solve", fake_run_solve)
    return configs


def test_convergence_matches_h_to_dt_on_the_runs_own_T(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--T", "1.0", "--levels", "4,8",
                 "--out", str(out)])
    assert code == 0
    for r in read_rows(out):
        assert float(r["h"]) == pytest.approx(float(r["dt"]))
        assert float(r["dt"]) == pytest.approx(1.0 / int(r["N"]))


def test_sweep_ignores_elems_from_config_file(tmp_path, solved):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("elems = 8\n")
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--config", str(cfg_file), "--elems", "8",
                 "--levels", "4,64", "--out", str(out)])
    assert code == 0
    assert [(c.n_slabs, c.n_elems) for c in solved] == [(4, 8), (64, 128)]
    assert [r["h"] == r["dt"] for r in read_rows(out)] == [True, True]


def test_sweep_reads_its_config_file_once(tmp_path, solved, monkeypatch):
    # the file is parsed into one base configuration, and every run is
    # derived from it
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tol = 1e-6\n")
    reads = []
    read = cli._read_config_file
    monkeypatch.setattr(cli, "_read_config_file",
                        lambda path: reads.append(path) or read(path))
    code = main(["iters", "--config", str(cfg_file), "--precond-list",
                 "mf,block", "--slab-list", "4,8",
                 "--out", str(tmp_path / "iters.csv")])
    assert code == 0
    assert reads == [str(cfg_file)]
    assert [(c.precond, c.n_slabs, c.n_elems, c.tol) for c in solved] == [
        ("mf", 4, 8, 1e-6), ("mf", 8, 16, 1e-6),
        ("block", 4, 8, 1e-6), ("block", 8, 16, 1e-6)]


def test_convergence_sweeps_the_configured_preconditioner(tmp_path, solved):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("precond = block\n")
    code = main(["convergence", "--config", str(cfg_file), "--levels", "4,8",
                 "--out", str(tmp_path / "conv.csv")])
    assert code == 0
    assert [(c.precond, c.n_slabs) for c in solved] == [("block", 4),
                                                          ("block", 8)]


@pytest.mark.parametrize("flags,dual", [
    ([], (1, 1)),
    (["--k", "2", "--q", "3"], (2, 3)),
    (["--k", "2", "--q", "3", "--kstar", "1", "--qstar", "0"], (1, 0)),
])
def test_dual_orders_follow_the_primal_ones_unless_set(flags, dual):
    cfg, _ = build_config(make_parser().parse_args(["solve", *flags]))
    assert (cfg.kstar, cfg.qstar) == dual


def test_iters_rejects_bad_precond_before_any_solve(tmp_path, solved, capsys):
    out = tmp_path / "iters.csv"
    code = main(["iters", "--precond-list", "mf,bogus", "--slab-list", "4",
                 "--out", str(out)])
    assert code == 1
    assert solved == []
    assert not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "bogus" in line


def test_sweep_rejects_off_vertex_data_before_any_solve(tmp_path, solved,
                                                       capsys):
    # N = 5 gives 10 elements of width 0.1, so 0.25 is not a vertex
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--k", "1", "--q", "1", "--levels", "16,32,5",
                 "--out", str(out)])
    assert code == 1
    assert solved == []
    assert not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: data interval endpoint 0.25 does not lie on a "
                    "mesh vertex")


@pytest.mark.parametrize("argv", [
    ["convergence", "--levels", "4,8"],
    ["iters", "--slab-list", "4"],
])
def test_sweeps_refuse_a_residual_log(argv, tmp_path, solved, capsys):
    # only solve writes a residual log; a sweep that took the flag would
    # exit 0 and write nothing
    log = tmp_path / "resid.log"
    assert main(argv + ["--residual-log", str(log)]) == 1
    assert solved == []
    assert not log.exists()
    assert "--residual-log" in capsys.readouterr().err


def test_unknown_preset_in_config_file_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("preset = bogus\n")
    assert main(["solve", "--config", str(cfg_file)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert all(name in line for name in ("bogus", "gcc1d", "nogcc1d"))


def test_preset_flag_overrides_config_file(tmp_path, solved):
    # preset is one more config key, and the flag overrides the file
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("preset = nogcc1d\n")
    out = tmp_path / "run.csv"
    assert main(["solve", "--config", str(cfg_file), "--preset", "gcc1d",
                 "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert row["preset"] == "gcc1d"


@pytest.mark.parametrize("preset, hi, code", [
    ("nogcc1d", 0.5, 1), ("nogcc1d", 0.25, 0), ("gcc1d", 0.5, 0)])
@pytest.mark.parametrize("via", ["flag", "file"])
def test_a_restricted_preset_refuses_another_omega(
        via, preset, hi, code, tmp_path, solved, capsys):
    # nogcc1d's restricted region is the cone of its own omega; gcc1d has
    # no restricted region
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"omega = 0,{hi}\n" if via == "file" else "")
    flags = ["--omega", f"0,{hi}"] if via == "flag" else []
    assert main(["solve", "--preset", preset, "--config", str(cfg_file),
                 *flags, "--out", str(tmp_path / "run.csv")]) == code
    if code == 0:
        assert [c.omega for c in solved] == [((0.0, hi),)]
        return
    assert solved == []
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "nogcc1d" in line and "0.5" in line


@pytest.mark.parametrize("argv", [
    ["solve", "--omega", "0.1"],
    ["solve", "--k", "x"],
    ["solve", "--precond", "ilu"],
    ["solve", "--no-such-flag"],
    [],
], ids=["bad-omega", "bad-int", "bad-choice", "unknown-flag", "no-command"])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--precond" in capsys.readouterr().out


def test_memory_error_exits_1(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 147. GiB for an array")

    monkeypatch.setattr("waveuc.cli.run_solve", no_memory)
    assert main(["solve", "--slabs", "4", "--elems", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: Unable to allocate 147. GiB for an array"


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "{missing}/run.csv"],
    ["solve", "--residual-log", "{missing}/resid.log"],
    ["convergence", "--levels", "4,8", "--out", "{missing}/conv.csv"],
], ids=["solve-out", "solve-residual-log", "convergence-out"])
def test_unwritable_sink_exits_1_before_any_assembly(argv, tmp_path,
                                                     monkeypatch, capsys):
    def no_assembly(config):
        raise AssertionError("assembled before opening the output")

    monkeypatch.setattr("waveuc.cli.SpaceTimeSystem", no_assembly)
    missing = tmp_path / "missing"
    assert main([a.format(missing=missing) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and str(missing) in line
    assert not missing.exists()


STALE = "stale,content\n" * 1000


def refuse_reservation(*args, **kwargs):
    raise MemoryError("cannot reserve 8 bytes for the GMRes basis")


@pytest.mark.parametrize("argv, fakes", [
    (["solve", "--residual-log", "{missing}/resid.log"], {}),
    (["solve", "--precond", "dfb", "--lambda", "1e308"], {}),
    (["iters", "--precond-list", "mf,dfb", "--slab-list", "2",
      "--lambda", "1e308"], {}),
    (["solve"], {"waveuc.cli.gmres": refuse_reservation}),
], ids=["unwritable-residual-log", "breakdown", "sweep-breakdown",
        "refused-reservation"])
def test_failing_run_leaves_an_existing_out_file_as_it_was(
        argv, fakes, tmp_path, monkeypatch):
    # --out is opened before the solve but emptied only when the rows are
    # written, so a run that exits 1 keeps the previous results
    for name, fake in fakes.items():
        monkeypatch.setattr(name, fake)
    out = tmp_path / "prev.csv"
    out.write_text(STALE)
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    assert main(argv + ["--slabs", "2", "--elems", "4", "--out", str(out)]) == 1
    assert out.read_text() == STALE


@pytest.mark.parametrize("argv, n_rows", [
    (["solve", "--slabs", "2", "--elems", "4"], 1),
    (["iters", "--precond-list", "mf,ml", "--slab-list", "2"], 2),
], ids=["solve", "iters"])
def test_written_rows_replace_an_existing_out_file(argv, n_rows, tmp_path):
    # a longer previous file is emptied, not appended to or overwritten in
    # part
    out = tmp_path / "prev.csv"
    out.write_text(STALE)
    assert main(argv + ["--out", str(out)]) == 0
    assert len(read_rows(out)) == n_rows
    assert "stale" not in out.read_text()


def test_out_may_be_a_pipe_or_device():
    # neither holds old rows nor can be truncated: both are written as
    # they are
    r, w = os.pipe()
    try:
        assert main(["solve", "--slabs", "2", "--elems", "4",
                     "--out", f"/dev/fd/{w}"]) == 0
    finally:
        os.close(w)
    with os.fdopen(r) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(CSV_HEADER) and len(lines) == 2
    assert main(["solve", "--slabs", "2", "--elems", "4",
                 "--out", os.devnull]) == 0
