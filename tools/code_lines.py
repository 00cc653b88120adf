"""Count the code lines of every Python module under a source directory.

Usage: python tools/code_lines.py SRC

A code line is a physical line that holds a token of the program other
than a comment and is not blank: blank lines, comment-only lines and the
lines of docstrings (the string literal that opens a module, class or
function body) do not count. A line that carries code and a trailing
comment counts. The script prints one ``count  path`` line per module
under SRC, sorted by path relative to SRC, then ``count  total``.
Exits 2 on bad usage or when SRC holds no module.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of a module's source, as defined above."""
    spans = _docstring_spans(ast.parse(source))
    physical = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(lo <= tok.start and tok.end <= hi
                                        for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    # a blank line inside a multi-line string is still blank
    return sum(1 for i in lines if physical[i - 1].strip())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0])
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
