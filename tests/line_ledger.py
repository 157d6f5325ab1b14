"""Line ledger: code lines per source file of the package.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string that opens a module, class or function body);
blank lines, comment lines and docstring lines do not count.  Prints one
count per file of src/zrtrimer and the total, then, on its own line, the
count of tests/reference.py, the independent references the tests compare
the package against (moved out of src, so not a reduction of it):

    python tests/line_ledger.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "zrtrimer"
REFERENCE = HERE / "reference.py"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    counts = {p: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(PACKAGE.glob("*.py"))}
    for path, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{n:6d}  {path.name}")
    print(f"{sum(counts.values()):6d}  total")
    print(f"{code_lines(REFERENCE.read_text(encoding='utf-8')):6d}  "
          "tests/reference.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
