"""The statements of ``src/rotamap`` that the test suite never runs.

Runs the Tier-1 suite in this process under a ``sys.settrace`` tracer
that records the lines run in frames of ``src/rotamap`` only, then
prints, per module, each statement (as ``ast`` finds them, docstrings
excluded) that never ran.  A statement counts as run if a line of its
header ran (its decorators and first line, up to its body for a
compound statement; every line of a simple one) or a statement inside
it did.  Only the outermost statement that never ran is printed, with
its line range and its first line.  ``global`` and ``nonlocal``, which
compile to nothing, are left out, and so is code that runs only in a
child process, such as the CLI tests run through ``subprocess``.

The tracer slows the suite several times over, so wall-clock bounds in
the tests may fail; the script exits 0 whatever the tests do, since the
suite's own run is the gate.  Run by hand from the repo root:

    python3 tests/unexecuted.py                      # the whole suite
    python3 tests/unexecuted.py tests/test_cli.py    # pytest arguments

The default arguments print each failure on one line (``--tb=line``),
so a bound missed under the tracer does not bury the listing.
"""

import ast
import os
import sys
import threading
from collections import defaultdict

from code_size import SRC, docstring_lines

ROOT = SRC.parent.parent


def _blocks(node):
    """The statement lists directly inside ``node``."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if block:
            yield block
    for clause in [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]:
        yield clause.body


def unexecuted(source: str, ran: set) -> list:
    """(first line, last line, text of the first line) of each outermost
    statement of ``source`` none of whose header lines is in ``ran`` and
    none of whose inner statements ran."""
    lines = source.splitlines()
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    out = []

    def header(node):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = node.body[0].lineno - 1 if isinstance(getattr(node, "body", None), list) \
            else node.end_lineno
        return range(first, max(first, last) + 1)

    def executed(node) -> bool:
        return (any(n in ran for n in header(node))
                or any(executed(s) for block in _blocks(node) for s in block))

    def visit(block):
        for node in block:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or node.lineno in docs:
                continue
            if not executed(node):
                first = header(node).start
                out.append((first, node.end_lineno, lines[first - 1].strip()))
                continue
            for inner in _blocks(node):
                visit(inner)

    visit(tree.body)
    return out


def trace_suite(args) -> dict:
    """Run pytest with ``args`` in this process; return the lines run in
    each file under ``SRC``, keyed by its path."""
    prefix = str(SRC) + "/"
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main(argv) -> int:
    os.chdir(ROOT)
    hits = trace_suite(["-p", "no:cacheprovider", *(argv or ["-q", "--tb=line", "--continue-on-collection-errors"])])
    print("\nstatements never run, per module of src/rotamap:")
    for path in sorted(SRC.glob("*.py")):
        missed = unexecuted(path.read_text(encoding="utf-8"), hits.get(str(path), set()))
        print(f"{path.name}: {len(missed)}")
        for first, last, text in missed:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
