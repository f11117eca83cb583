"""Count the code lines of Python files: every line except blank ones,
comment-only ones and the lines of module, class and function docstrings.

    python3 tools/loc.py PATH [PATH ...]

A PATH is a file or a directory, whose *.py files (not those of its
subdirectories) are counted.  It prints each file's count and then the
total, the last line being "total N".
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that make no line code by themselves
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.glob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text())
        print(f"{count:6d} {path}")
        total += count
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
