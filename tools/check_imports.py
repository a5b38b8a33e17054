#!/usr/bin/env python3
"""Report every imported name that its module never uses.

    python3 tools/check_imports.py src/fwdist tests tools

Each argument is a Python file or a directory searched for ``*.py``. A name
counts as used when it is read anywhere in its module, appears in a string
annotation, or is listed in the module's ``__all__``; ``from __future__``
imports are always used. Scopes are not told apart: a name imported in one
function and read in another counts as used. Prints one ``path:line: name``
line per unused import and exits 1 if there is any, 0 otherwise. Needs only
the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # "import a.b" binds "a"; "*" binds nothing nameable
    return [alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*"]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            yield node.returns


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in node.targets)
                and isinstance(node.value, ast.List | ast.Tuple)):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import in ``source`` whose name is never used."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    for annotation in _annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            parsed = ast.parse(annotation.value, mode="eval")
            used.update(node.id for node in ast.walk(parsed) if isinstance(node, ast.Name))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            found.extend((node.lineno, name) for name in _bound_names(node) if name not in used)
    return sorted(found)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/fwdist"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    status = 0
    for path in files:
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            print(f"{path}:{line}: {name} imported but unused")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
