"""The A/B tool tools/ab.py, run in-process through its main()."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

LAYERS = ("init", "rhs", "pc", "em_first", "step", "M", "A", "norms")


@pytest.fixture(autouse=True)
def tiny_outputs(monkeypatch):
    # one tiny system and one tiny solve, so that the outputs take well
    # under a second per tree
    monkeypatch.setattr(ab, "SYSTEMS", [("gcc1d", 1, 1, 2)])
    monkeypatch.setattr(ab, "SOLVES", [ab.Solve("gcc1d", 1, 2, "mf")])


def ab_json(tmp_path, *args):
    """The exit code and JSON table of tools/ab.py run with args and one
    call per median; only its shape is checked, none of its timings."""
    out = tmp_path / "bench.json"
    code = ab.main(["--calls", "1", "--json", str(out), *args])
    table = json.loads(out.read_text())
    assert table["calls"] == 1
    assert set(table["environment"]) == {
        "blas_threads_numpy", "blas_threads_scipy", "nproc",
        "load_average_before", "load_average_after"}
    return code, table


def test_ab_base_json_holds_the_selected_configuration(tmp_path):
    # this tree against itself: every layer of an mf solve with its ratios,
    # and every output bitwise equal to itself
    key = "gcc1d-k1-N16-mf"
    code, table = ab_json(tmp_path, "--base", str(ROOT), key)
    assert code == 0
    assert table["base"] == ROOT.name and table["rounds"] == 10
    (config,) = table["configurations"]
    assert config["key"] == key and config["ndof"] > 0
    assert tuple(config["phases"]) == LAYERS
    for phase in config["phases"].values():
        assert set(phase) == {"base_ms", "change_over_base", "aa"}
        for ratio in (phase["change_over_base"], phase["aa"]):
            assert set(ratio) == {"median", "q1", "q3"}
    assert table["bitwise"]["outputs"] > 0
    assert table["bitwise"]["differ"] == {}


def test_ab_dfb_has_no_first_em(tmp_path):
    # dfb has no defect, so its step is A(M(v)) and nothing builds traces
    _, table = ab_json(tmp_path, "gcc1d-k1-N16-dfb")
    (config,) = table["configurations"]
    assert tuple(config["phases"]) == tuple(
        name for name in LAYERS if name != "em_first")


def test_ab_single_tree_json_has_no_ratios_and_no_bitwise_section(tmp_path):
    key = "nogcc1d-k1-N8-mf"
    code, table = ab_json(tmp_path, key)
    assert code == 0
    assert table["base"] is None and table["rounds"] == 1
    assert "bitwise" not in table
    (config,) = table["configurations"]
    assert config["key"] == key
    assert tuple(config["phases"]) == LAYERS
    for phase in config["phases"].values():
        assert set(phase) == {"base_ms"} and phase["base_ms"] >= 0


def test_ab_compare_names_each_difference():
    base = ab.outputs(ab.waveuc)
    change = {key: value.copy() for key, value in base.items()}
    assert ab.compare(base, change) == {}
    flipped = "gcc1d-k1-N2-mf-solve-x"
    change[flipped].view(np.uint64)[0] ^= 1
    widened = "gcc1d-k1-N2-A_pd-indices"
    assert change[widened].dtype == np.int32
    change[widened] = change[widened].astype(np.int64)
    dropped = "gcc1d-k1-N2-rhs"
    del change[dropped]
    differ = ab.compare(base, change)
    assert set(differ) == {flipped, widened, dropped}
    assert 0 < differ[flipped] < 1e-15
    assert differ[widened] == "dtype only (int32 -> int64)"
    assert differ[dropped] == "base only"
    assert ab.compare(change, base)[dropped] == "change only"


class Contract:
    """A preconditioner seen only through what gmres reads of it."""

    __slots__ = ("apply", "defect")

    def __init__(self, M):
        self.apply = M.apply
        if hasattr(M, "defect"):
            self.defect = M.defect


def test_ab_reads_preconditioners_only_through_apply_and_defect(monkeypatch):
    # outputs that read a preconditioner's LUs or kept matrices would go
    # missing here
    real = ab.outputs(ab.waveuc)
    build = ab.waveuc.build_preconditioner

    def proxied(system, kind):
        return Contract(build(system, kind))

    monkeypatch.setattr(ab.waveuc, "build_preconditioner", proxied)
    monkeypatch.setattr("waveuc.cli.build_preconditioner", proxied)
    assert ab.compare(real, ab.outputs(ab.waveuc)) == {}


def test_ab_exits_1_when_an_output_differs(tmp_path, monkeypatch, capsys):
    # a KEY that selects no configuration times nothing, and outputs that
    # differ by one value are named in the bitwise section
    monkeypatch.setattr(ab, "outputs", lambda tree: {"x": np.array(
        [1.0, 2.0 if tree.__name__ == "waveuc_change" else 4.0])})
    code, table = ab_json(tmp_path, "--base", str(ROOT), "no-such-key")
    assert code == 1 and table["configurations"] == []
    assert table["bitwise"] == {"outputs": 1, "differ": {"x": 0.5}}
    assert "0 of 1 outputs bitwise identical" in capsys.readouterr().out


def test_ab_base_loads_base_change_and_base_again_alike(tmp_path, monkeypatch):
    # all three trees come from load_tree, the change from this checkout,
    # so the waveuc on PYTHONPATH is neither timed nor compared
    loaded = []
    load_tree = ab.load_tree

    def recorded(tree, name):
        loaded.append((Path(tree).resolve(), name))
        return load_tree(ROOT, name)

    monkeypatch.setattr(ab, "load_tree", recorded)
    compared = []
    monkeypatch.setattr(ab, "outputs", lambda tree: compared.append(
        tree.__name__) or {})
    base = tmp_path / "base"
    code, _ = ab_json(tmp_path, "--base", str(base), "no-such-key")
    assert code == 0
    assert loaded == [(base, "waveuc_base"), (ROOT, "waveuc_change"),
                      (base, "waveuc_base_again")]
    assert compared == ["waveuc_base", "waveuc_change"]
