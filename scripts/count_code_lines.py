"""Count the code lines of a Python package: blank, comment and docstring lines excluded.

Usage: python scripts/count_code_lines.py [PACKAGE_DIR]   (default: src/spdalign)

A line counts when it holds at least one token that is not a comment. The
lines of a docstring, the string statement that opens a module, class or
function body, do not count. Prints one ``count module`` row per module, in
name order, then the total.
"""

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
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "spdalign")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
