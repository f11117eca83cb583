"""The code-line counter tools/loc.py, run in-process through its main()."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 7 code lines: the import, the class and def lines, both lines of the
# string assigned to x (no docstring) and both lines of the return
FIXTURE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code


# a comment-only line
class A:
    """Class docstring."""

    x = """a string that is no docstring,
over two lines"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return (1,
                2)
'''


def test_loc_counts_code_lines_only(tmp_path, capsys):
    assert loc.code_lines(FIXTURE) == 7
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("# nothing but a comment\n\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # a directory's own files, in name order; not its subdirectories
    assert lines == [f"     7 {tmp_path / 'a.py'}",
                     f"     0 {tmp_path / 'b.py'}", "total 7"]
