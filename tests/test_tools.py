"""The measurement tools under tools/, run as their users run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
