#!/usr/bin/env python3
"""Count the code lines and source bytes of every Python file under a
directory.

Usage: python scripts/code_lines.py [DIR]    (default: src/fairnoise)

A line counts when it holds a token other than a comment, and the lines of
module, class and function docstrings do not count; so blank lines,
comment-only lines and docstrings are all skipped. Bytes are the whole
file's, docstrings and comments included: a process that compiles the
module holds memory for all of them. Prints one line per file, code lines
then bytes, then the totals. Run it on two checkouts for a net change.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fairnoise"

#: tokens that make no line a code line
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()

    total = size = 0
    for path in sorted(args.root.rglob("*.py")):
        count, nbytes = code_lines(path.read_text()), path.stat().st_size
        total, size = total + count, size + nbytes
        print(f"{count:6d}  {nbytes:8d}  {path.relative_to(args.root)}")
    print(f"{total:6d}  {size:8d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
