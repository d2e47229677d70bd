"""Count a tree's code lines: non-blank lines outside docstrings and
comments, read with ``ast`` (docstrings) and ``tokenize`` (everything
else). A string spread over several lines counts each of them unless it
is a module, class or function docstring.

    python tools/code_lines.py [DIR ...]     # default: src

prints one ``<count> <dir>`` line per directory. CI's job summary shows
the figure for ``src/`` beside the plain line count; it gates nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Code lines of one module's source ``text``."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    for root in argv or ["src"]:
        total = sum(
            code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(Path(root).rglob("*.py"))
        )
        print(total, root)


if __name__ == "__main__":
    main(sys.argv[1:])
