"""Count the code lines of every Python module under a source directory.

Usage: python tools/code_lines.py SRC [--base BASE]

A code line is a physical line that holds a token of the program other
than a comment and is not blank: blank lines, comment-only lines and the
lines of docstrings (the string literal that opens a module, class or
function body) do not count. A line that carries code and a trailing
comment counts. The script prints one ``count  path`` line per module
under SRC, sorted by path relative to SRC, then ``count  total``.

With ``--base BASE``, BASE being the same package at another commit
(say, a pull request's base), it prints a header line, then one
``base  head  change  path`` line per module under either directory and
a ``base  head  change  total`` line: the change is head minus base,
signed, and a module missing on one side counts 0 there. Exits 2 on
bad usage or when SRC or BASE holds no module.
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


def module_counts(root: Path) -> dict[str, int]:
    """{path relative to root: code lines} of every module under root."""
    return {str(path.relative_to(root)): code_lines(path.read_text())
            for path in root.rglob("*.py")}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        roots = [Path(argv[0])]
    elif len(argv) == 3 and argv[1] == "--base":
        roots = [Path(argv[0]), Path(argv[2])]
    else:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    counts = []
    for root in roots:
        counts.append(module_counts(root))
        if not counts[-1]:
            print(f"no Python modules under {root}", file=sys.stderr)
            return 2
    head = counts[0]
    if len(counts) == 1:
        for path in sorted(head):
            print(f"{head[path]:6d}  {path}")
        print(f"{sum(head.values()):6d}  total")
        return 0
    base = counts[1]
    print(f"{'base':>6}  {'head':>6}  {'change':>6}  module")
    rows = [(path, base.get(path, 0), head.get(path, 0)) for path in sorted(head | base)]
    rows.append(("total", sum(base.values()), sum(head.values())))
    for path, before, after in rows:
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
