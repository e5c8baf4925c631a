"""Count the code lines of each module of ``src/digitlab/`` and their total.

The rule: a physical line counts if it holds a token other than a comment,
NL, NEWLINE, INDENT or DEDENT (a string token spanning several lines holds
each of them), and it is not inside a module, class or def docstring, the
string statement that opens the body of one.  So blank lines, comment
lines and docstrings do not count, and a statement split over n lines
counts n.

Run from the root of the repository: ``python3 tools/code_lines.py``, or
name other files or directories as arguments.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The physical lines of every module, class and def docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source`` by the rule above."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or [Path("src/digitlab")]
    files = sorted(f for p in paths
                   for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
