#!/usr/bin/env python3
"""Report every statement of ``src/fwdist`` that no case of the equivalence corpus executes.

    python3 tools/reach.py

Runs each case of ``tests/equivalence.py`` under ``sys.settrace``, with the package imported
under the same trace, and prints one ``path:line`` line per statement that no case executes,
in file and line order, then a count. A statement is reported at its first line. Docstrings
and other bare constants compile to no code, so they are left out. A line listed here is a
path whose behaviour the corpus's digests do not lock. Always exits 0: the list is a report,
not a check. Needs only the standard library.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fwdist"
CORPUS = ROOT / "tests" / "equivalence.py"


def _spans(tree: ast.Module):
    """``(first line, lines)`` of each statement: a simple statement's lines, or a compound
    statement's header, from its first decorator to the line before its body."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or another constant that compiles to nothing
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(start, end + 1)


def unreached(source: str, executed: set[int]) -> list[int]:
    """First lines of the statements of ``source`` that no line in ``executed`` falls in."""
    spans = list(_spans(ast.parse(source)))
    reached = {first for first, lines in spans if not executed.isdisjoint(lines)}
    return sorted({first for first, _ in spans} - reached)


def trace_lines(paths, run) -> dict[str, set[int]]:
    """Call ``run()`` and return, for each file of ``paths``, the lines that it executed."""
    wanted = {str(p): set() for p in paths}

    def on_call(frame, event, arg):
        lines = wanted.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return wanted


def _run_corpus() -> None:
    """Import the corpus, and with it the package, then run every case."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("equivalence", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for raw in corpus.CASES.values():
        corpus.digests(raw)


def main() -> int:
    paths = sorted(PACKAGE.rglob("*.py"))
    executed = trace_lines(paths, _run_corpus)
    count = 0
    for path in paths:
        for line in unreached(path.read_text(encoding="utf-8"), executed[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}")
            count += 1
    print(f"{count} statements of {PACKAGE.relative_to(ROOT)} that no equivalence case executes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
