"""``tools/check_imports.py``, which CI runs on ``src/fwdist``, ``tests`` and ``tools``."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_imports", ROOT / "tools" / "check_imports.py")
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)

SYNTHETIC = textwrap.dedent('''\
    from __future__ import annotations

    import os.path
    import json as js
    from dataclasses import dataclass, field
    from typing import TYPE_CHECKING, Callable
    from collections import *

    __all__ = ["Callable"]

    if TYPE_CHECKING:
        from decimal import Decimal


    def size(path) -> "Decimal":
        return os.path.getsize(path)


    def load():
        import re
        return js
''')


def test_synthetic_module_reports_exactly_its_unused_imports():
    assert check_imports.unused_imports(SYNTHETIC) == [(5, "dataclass"), (5, "field"), (20, "re")]


def test_main_prints_each_unused_import_and_exits_1(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SYNTHETIC)
    (tmp_path / "pkg" / "clean.py").write_text("import os\nprint(os.sep)\n")
    assert check_imports.main([str(tmp_path / "pkg")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'pkg' / 'mod.py'}:{line}: {name} imported but unused"
        for line, name in ((5, "dataclass"), (5, "field"), (20, "re"))]
    assert check_imports.main([str(tmp_path / "pkg" / "clean.py")]) == 0


def test_source_tree_has_no_unused_import():
    assert check_imports.main([str(ROOT / part) for part in ("src/fwdist", "tests", "tools")]) == 0
