"""The mutant list of tools/mutants.py stays applicable: each mutant's text
occurs exactly once in its file and the fault it makes is one line of valid
Python.  The mutation run itself is not part of these tests."""

import ast
import difflib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_target_occurs_once(mutant):
    source = (ROOT / mutant.path).read_text()
    assert source.count(mutant.old) == 1
    changed = mutants.mutated(mutant, source)
    diff = [line for line in difflib.ndiff(source.splitlines(),
                                           changed.splitlines())
            if line.startswith(("- ", "+ "))]
    assert len(diff) == 2
    ast.parse(changed)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_a_missing_target_is_refused():
    mutant = mutants.MUTANTS[0]
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutated(mutant, "")
