"""Line counts of each module in ``src/rotamap``: total, code, docstring,
comment and blank lines.

A docstring line is a line of a module, class or function docstring, as
``ast`` finds them, blank lines inside it included.  Of the other lines,
a comment line holds only a comment, a blank line holds nothing, and
every other line is code.  These are the counts that ROADMAP's "Current
state" quotes.  Run from the repo root:

    python3 tests/code_size.py
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rotamap"
FIELDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree) -> set:
    """The line numbers, from 1, of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(FIELDS, 0)
    out["total"] = len(lines)
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if number in docs:
            out["docstring"] += 1
        elif not stripped:
            out["blank"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main() -> int:
    rows = [(p.name, count(p)) for p in sorted(SRC.glob("*.py"))]
    totals = {f: sum(c[f] for _, c in rows) for f in FIELDS}
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{f:>11}" for f in FIELDS))
    for name, c in rows + [("all", totals)]:
        print(f"{name:<{width}}" + "".join(f"{c[f]:>11,}" for f in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
