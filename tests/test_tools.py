"""The measurement tools under tools/, run as their users run them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_layer_times_base_json_holds_the_selected_configuration(tmp_path):
    # this tree against itself, one call per median: only the table's
    # shape is checked, none of its timings
    out = tmp_path / "bench.json"
    key = "gcc1d-k1-N16-mf"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "tools" / "layer_times.py"),
                    "--base", str(ROOT), "--calls", "1", "--json", str(out),
                    key], env=env, check=True, capture_output=True,
                   timeout=300)
    table = json.loads(out.read_text())
    assert table["base"] == ROOT.name
    assert table["rounds"] == 10 and table["calls"] == 1
    assert set(table["environment"]) == {
        "blas_threads_numpy", "blas_threads_scipy", "nproc",
        "load_average_before", "load_average_after"}
    (config,) = table["configurations"]
    assert config["key"] == key
    assert set(config["phases"]) == {"init", "rhs", "pc"}
    for phase in config["phases"].values():
        assert set(phase) == {"base_ms", "change_over_base", "aa"}
        for ratio in (phase["change_over_base"], phase["aa"]):
            assert set(ratio) == {"median", "q1", "q3"}


def test_dump_outputs_round_trip(tmp_path, monkeypatch, capsys):
    # one tiny system and one tiny solve; a dump compares equal to itself,
    # and a change to one array's bytes is found and named
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", ROOT / "tools" / "dump_outputs.py")
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    monkeypatch.setattr(dump, "SYSTEMS", [("gcc1d", 1, 1, 2)])
    monkeypatch.setattr(dump, "SOLVES", [("gcc1d", 1, 2, "mf")])
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    assert dump.main([str(a)]) == 0
    assert dump.main(["--compare", str(a), str(a)]) == 0
    with np.load(a) as arrays:
        out = dict(arrays)
    key = "gcc1d-k1-N2-mf-solve-x"
    out[key].view(np.uint64)[0] ^= 1
    np.savez(b, **out)
    capsys.readouterr()
    assert dump.main(["--compare", str(a), str(b)]) == 1
    differs = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("differs")]
    assert len(differs) == 1 and differs[0].startswith(f"differs: {key} ")
