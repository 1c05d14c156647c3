"""Count the lines of the package source: all lines, and code lines.

A code line holds at least one token that is not a comment or a docstring;
blank lines, comment lines and the lines of docstrings (the string that
opens a module, class or function body) are not code.  Run from anywhere:

    python3 tools/src_lines.py [directory]

The directory defaults to ``src/`` of this checkout.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docstrings)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
    print(f"{root}: {total} lines, {code} code lines (docstrings, comments and blank lines excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
