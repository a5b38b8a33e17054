#!/usr/bin/env python3
"""Report every top-level function, class and method that no other line of the tree names.

    python3 tools/check_api.py src/fwdist

The argument is a directory searched for ``*.py``. A definition counts as named when its
name appears as an identifier (a variable, an attribute or an imported name, not a string)
on any line of the tree other than the line that defines it. So a name shared with some
other use counts as named, and the check can miss dead API, but a definition it reports is
named nowhere else. Dunder methods, which the language calls, are never reported, nor are
the definitions in ``ALLOWED``, which a user or a script outside the tree reaches. Prints
one ``path:line: module.qualname`` line per definition, and one ``path: module.qualname``
line per stale ``ALLOWED`` row, whose module is in the tree but defines no such name; exits
1 if there is either, 0 otherwise. Needs only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import defaultdict
from pathlib import Path

# "module.qualname", the module's dotted path inside the tree
ALLOWED = {
    "cli.fwpub_main",  # the fwpub command
    "vendor.read_publication",  # how a device or a script loads what fwpub wrote
}


def _definitions(tree: ast.Module):
    """``(line, qualname, name)`` of each top-level function and class, and of each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef):
                    yield item.lineno, f"{node.name}.{item.name}", item.name


def _named_lines(source: str) -> dict[str, set[int]]:
    """Identifier -> the lines that hold it."""
    lines = defaultdict(set)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            lines[token.string].add(token.start[0])
    return lines


def unnamed_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(module, line, qualname)`` of every definition in ``sources`` (module -> source) that
    no other line of any of them names, leaving out dunders and ``ALLOWED``."""
    named = {module: _named_lines(source) for module, source in sources.items()}
    found = []
    for module, source in sources.items():
        for line, qualname, name in _definitions(ast.parse(source)):
            if name.startswith("__") and name.endswith("__") or f"{module}.{qualname}" in ALLOWED:
                continue
            elsewhere = any(lines.get(name, set()) - ({line} if other == module else set())
                            for other, lines in named.items())
            if not elsewhere:
                found.append((module, line, qualname))
    return sorted(found)


def stale_allowed(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(module, row)`` of each ``ALLOWED`` row whose module is in ``sources`` (module ->
    source) but defines no such name."""
    defined = {f"{module}.{qualname}" for module, source in sources.items()
               for _, qualname, _ in _definitions(ast.parse(source))}
    return [(module, row) for row in sorted(ALLOWED - defined)
            for module in sources if row.startswith(module + ".")]


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/fwdist")
    paths = {".".join(path.relative_to(root).with_suffix("").parts): path
             for path in sorted(root.rglob("*.py"))}
    sources = {module: path.read_text(encoding="utf-8") for module, path in paths.items()}
    status = 0
    for module, line, qualname in unnamed_definitions(sources):
        print(f"{paths[module]}:{line}: {module}.{qualname} is named nowhere else in {root}")
        status = 1
    for module, row in stale_allowed(sources):
        print(f"{paths[module]}: {row} is allowed but not defined in {root}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
