#!/usr/bin/env python3
"""Code lines of each ``src/defirisk`` module and their total.

A code line holds a token other than a comment; docstrings (the string
that opens a module, class or function) and blank lines do not count.
A statement over several lines counts each of its lines.

    python scripts/code_lines.py            # the source tree this script sits in
    python scripts/code_lines.py ROOT       # another tree's src/defirisk
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "defirisk").glob("*.py"))
    if not modules:
        print(f"no Python modules under {root / 'src' / 'defirisk'}", file=sys.stderr)
        return 2
    counts = {path.name: code_lines(path) for path in modules}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
