"""Code lines of each Python module under a path, and their total.

    python tools/code_lines.py src/spinwire

A code line holds a token other than a comment or a line break, outside
the docstrings of modules, classes and functions; blank lines and
comment-only lines do not count.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as handle:
        lines = {line for kind, _, (start, _), (end, _), _ in tokenize.tokenize(handle.readline)
                 if kind not in SKIPPED for line in range(start, end + 1)}
    return len(lines - docstrings)


def main(root: str) -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
