"""The measurement tools under tools/, run as their users run them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


LAYERS = ("init", "rhs", "pc", "em_first", "step", "M", "A", "norms")
OUTPUTS = {"rhs", "step", "M", "A", "norms"}


def layer_times_json(tmp_path, *args):
    """The JSON table of tools/layer_times.py run with args and one call
    per median; only its shape is checked, none of its timings."""
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "tools" / "layer_times.py"),
                    "--calls", "1", "--json", str(out), *args], env=env,
                   check=True, capture_output=True, timeout=300)
    table = json.loads(out.read_text())
    assert table["calls"] == 1
    assert set(table["environment"]) == {
        "blas_threads_numpy", "blas_threads_scipy", "nproc",
        "load_average_before", "load_average_after"}
    return table


def test_layer_times_base_json_holds_the_selected_configuration(tmp_path):
    # this tree against itself: every layer of an mf solve, each output
    # bitwise equal to itself
    key = "gcc1d-k1-N16-mf"
    table = layer_times_json(tmp_path, "--base", str(ROOT), key)
    assert table["base"] == ROOT.name and table["rounds"] == 10
    (config,) = table["configurations"]
    assert config["key"] == key and config["ndof"] > 0
    assert tuple(config["phases"]) == LAYERS
    for name, phase in config["phases"].items():
        assert set(phase) == {"base_ms", "change_over_base", "aa", "bitwise"}
        for ratio in (phase["change_over_base"], phase["aa"]):
            assert set(ratio) == {"median", "q1", "q3"}
        assert phase["bitwise"] is (True if name in OUTPUTS else None)


def test_layer_times_dfb_has_no_first_em(tmp_path):
    # dfb has no defect, so its step is A(M(v)) and nothing builds traces
    table = layer_times_json(tmp_path, "--base", str(ROOT),
                             "gcc1d-k1-N16-dfb")
    (config,) = table["configurations"]
    assert tuple(config["phases"]) == tuple(
        name for name in LAYERS if name != "em_first")


def test_layer_times_single_tree_json_has_no_ratios(tmp_path):
    key = "nogcc1d-k1-N8-mf"
    table = layer_times_json(tmp_path, key)
    assert table["base"] is None and table["rounds"] == 1
    (config,) = table["configurations"]
    assert config["key"] == key
    assert tuple(config["phases"]) == LAYERS
    for phase in config["phases"].values():
        assert set(phase) == {"base_ms"} and phase["base_ms"] >= 0


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
