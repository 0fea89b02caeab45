"""Count the code lines of matmeans' source: lines without comments,
docstrings or blank lines.

Run from the root of a checkout::

    python3 tools/code_lines.py              # the package under src/
    python3 tools/code_lines.py --src ../parent/src

A line counts when a token of code (anything but a comment, a newline or
an indent) covers it; a string that spans lines covers each of them. The
docstrings of modules, classes and functions, which ``ast`` finds, do not
count. It prints one line per module, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that are not code.
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory of the package")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*/*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(args.src)}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
