import csv
import re

import numpy as np
import pytest

from waveuc.cli import CSV_HEADER, main
from waveuc.config import PRESETS, DiscretizationConfig, default_lambda
from waveuc.krylov import GmresConfig


def read_rows(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_HEADER
        return list(reader)


# -- configuration ----------------------------------------------------------


def test_presets_match_experiment_setups():
    gcc = PRESETS["gcc1d"]
    assert (gcc.a, gcc.b, gcc.T) == (0.0, 1.0, 0.5)
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("tol", INF), ("tol", NAN), ("lam", INF), ("lam", NAN),
    ("T", INF), ("T", NAN), ("a", -INF), ("b", NAN),
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
