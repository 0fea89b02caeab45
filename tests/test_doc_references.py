"""Every private name that the docs cite is a name of the code.

A docstring or comment of ``src/matmeans`` cites a name in double
backticks, and ``README.md`` in backticks. Each part of such a name with
one leading underscore (``_run_all`` of ``norms._run_all``) must occur as
a NAME token of the package's code, where strings and comments do not
count, so a doc that still names a deleted or renamed helper fails here.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matmeans"

#: A dotted name that starts a code span or follows a space, a bracket, a
#: comma or an "=" (so no math subscript such as the 2 of ``||X||_2``).
DOTTED = re.compile(r"(?<![^\s(\[,=])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

#: A name with one leading underscore: not a dunder.
PRIVATE = re.compile(r"_[^\W_]\w*")


def _private(texts, quote: str) -> list[str]:
    """Each part with one leading underscore of each dotted name cited
    between ``quote`` pairs in ``texts``."""
    span = re.compile(f"{quote}([^`\n]+?){quote}")
    return [
        part
        for text in texts
        for cited in span.findall(text)
        for name in DOTTED.findall(cited)
        for part in name.split(".")
        if PRIVATE.fullmatch(part)
    ]


def _docs_and_code(source: str) -> tuple[list[str], set[str]]:
    """The docstrings and comments of a module's source, and its NAME tokens."""
    docs, names = [], set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            docs.append(token.string)
        elif token.type == tokenize.NAME:
            names.add(token.string)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                docs.append(doc)
    return docs, names


def test_cited_private_names_exist():
    cited, names = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        docs, code = _docs_and_code(path.read_text())
        names |= code
        cited[path.name] = _private(docs, "``")
    cited["README.md"] = _private([(ROOT / "README.md").read_text()], "`")
    assert sum(map(len, cited.values())) > 150  # the scan reads the docs
    stale = {where: sorted(set(found) - names) for where, found in cited.items()}
    assert not any(stale.values()), {where: found for where, found in stale.items() if found}
