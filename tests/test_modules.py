"""The package's module boundaries: no module imports a sibling's private
name, no tool under tools/ reads a private name of waveuc, and every name a
module's __all__ lists exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "waveuc"
MODULES = sorted(PACKAGE.glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def module_name(path):
    return "waveuc" if path.stem == "__init__" else f"waveuc.{path.stem}"


def _from_waveuc(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "waveuc"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _root(node):
    """The name an attribute chain such as waveuc.precond._x starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_uses(path):
    """The lines of path that import a private name of waveuc (from waveuc…
    or a relative import), read one as an attribute of a name bound to
    waveuc or imported from it, or fetch one with getattr on such a
    name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names
                         if alias.name.split(".")[0] == "waveuc")
        elif isinstance(node, ast.ImportFrom) and _from_waveuc(node):
            bound.update(alias.asname or alias.name for alias in node.names)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_waveuc(node):
            uses += [f"line {node.lineno}: from {'.' * node.level}"
                     f"{node.module or ''} import {alias.name}"
                     for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and _root(node.value) in bound):
            uses.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr"
              and len(node.args) >= 2 and _root(node.args[0]) in bound
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)
              and _private(node.args[1].value)):
            uses.append(f"line {node.lineno}: {ast.unparse(node)}")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_is_imported_from_a_sibling(path):
    assert private_uses(path) == []


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.stem)
def test_no_tool_reads_a_private_name_of_waveuc(path):
    assert private_uses(path) == []


def test_the_private_name_check_flags_each_kind_of_use(tmp_path):
    path = tmp_path / "tool.py"
    path.write_text(
        "import waveuc\n"
        "import waveuc.precond as precond\n"
        "from waveuc import slab_forms\n"
        "from waveuc.precond import _Band, build_preconditioner\n"
        "waveuc.precond._BandLU\n"
        "precond._march\n"
        "getattr(slab_forms, '_spatial_embedding', None)\n"
        "build_preconditioner.__name__\n"
        "getattr(precond, 'build_preconditioner')\n")
    assert sorted(use.split(":")[0] for use in private_uses(path)) == [
        "line 4", "line 5", "line 6", "line 7"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_exists(path):
    module = importlib.import_module(module_name(path))
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert missing == []
