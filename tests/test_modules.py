"""The package's module boundaries: no module imports a sibling's private
name, and every name a module's __all__ lists exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "waveuc"
MODULES = sorted(PACKAGE.glob("*.py"))


def module_name(path):
    return "waveuc" if path.stem == "__init__" else f"waveuc.{path.stem}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_is_imported_from_a_sibling(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
        f"import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "waveuc")
        for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_exists(path):
    module = importlib.import_module(module_name(path))
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert missing == []
