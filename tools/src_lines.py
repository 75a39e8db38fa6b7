"""Count the code lines and the docstring lines of each module under src/.

    python tools/src_lines.py [SRC]

SRC defaults to the ``src`` directory next to this one.  A docstring line
is a line of a module, class or function docstring.  A code line is any
other line that is neither blank nor a comment.  Blank lines and comment
lines are in neither count.  Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, from 1, covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in docs and line.strip() and not line.lstrip().startswith("#")
    )
    return code, len(docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    totals = [0, 0]
    print(f"{'module':<40} {'code':>6} {'docs':>6}")
    for path in sorted(root.rglob("*.py")):
        code, docs = count(path.read_text(encoding="utf-8"))
        totals[0] += code
        totals[1] += docs
        print(f"{str(path.relative_to(root)):<40} {code:>6} {docs:>6}")
    print(f"{'total':<40} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
