"""Print the code lines of each module in ``src/robothumb`` and their total.

A code line holds at least one token that is not part of a docstring or a
comment; blank lines, comment lines and docstring lines do not count. A
docstring is a string statement that opens a module, class or function body.
Standard library only.

    python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robothumb"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline)
                 if tok.type not in NOT_CODE
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - skip)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    counts = {p.stem: code_lines(p) for p in sorted(package.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:6,d}  {name}")
    print(f"{sum(counts.values()):6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
