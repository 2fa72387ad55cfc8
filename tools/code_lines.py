"""Count the code lines of the Python sources under a directory.

A code line holds a token of the program: it is not blank, not only a
comment, and not inside the docstring of a module, class or function.
A statement split over several lines counts each of them.

Usage: python3 tools/code_lines.py DIR

prints each file's count, then the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/code_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(pathlib.Path(argv[0]).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
