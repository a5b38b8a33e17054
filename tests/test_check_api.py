"""``tools/check_api.py``, which CI runs on ``src/fwdist``."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_api", ROOT / "tools" / "check_api.py")
check_api = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_api)

SYNTHETIC = {
    "a": textwrap.dedent('''\
        from .b import used


        def orphan():
            return "helper"  # a string names nothing


        def helper():
            return used()


        def recursive(n):
            return recursive(n - 1) if n else 0


        class Store:
            def __init__(self):
                self.items = []

            def get(self, key):
                return helper()

            def unused_method(self): return 1


        def fwpub_main():
            return Store().get(0)
    '''),
    "b": textwrap.dedent('''\
        def used():
            return 0


        def read_publication():
            return None
    '''),
    "sub.c": "class Lonely:\n    pass\n",
}


def test_synthetic_tree_reports_exactly_its_unnamed_definitions():
    assert check_api.unnamed_definitions(SYNTHETIC) == [
        ("a", 4, "orphan"), ("a", 23, "Store.unused_method"), ("a", 26, "fwpub_main"),
        ("b", 5, "read_publication"), ("sub.c", 1, "Lonely")]


def test_allowed_definitions_are_not_reported():
    renamed = {"cli": SYNTHETIC["a"], "vendor": SYNTHETIC["b"], "sub.c": SYNTHETIC["sub.c"]}
    assert check_api.unnamed_definitions(renamed) == [
        ("cli", 4, "orphan"), ("cli", 23, "Store.unused_method"), ("sub.c", 1, "Lonely")]


def test_main_prints_each_unnamed_definition_and_exits_1(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    for module, source in SYNTHETIC.items():
        (pkg / Path(*module.split("."))).with_suffix(".py").write_text(source)
    assert check_api.main([str(pkg)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{pkg / 'a.py'}:4: a.orphan is named nowhere else in {pkg}",
        f"{pkg / 'a.py'}:23: a.Store.unused_method is named nowhere else in {pkg}",
        f"{pkg / 'a.py'}:26: a.fwpub_main is named nowhere else in {pkg}",
        f"{pkg / 'b.py'}:5: b.read_publication is named nowhere else in {pkg}",
        f"{pkg / 'sub' / 'c.py'}:1: sub.c.Lonely is named nowhere else in {pkg}"]
    (pkg / "sub" / "c.py").unlink()
    (pkg / "a.py").write_text("from .b import used, read_publication\n")
    assert check_api.main([str(pkg)]) == 0


def test_source_tree_has_no_api_that_nothing_names():
    assert check_api.main([str(ROOT / "src" / "fwdist")]) == 0


def test_an_allowed_row_its_module_does_not_define_is_reported(tmp_path, capsys):
    # a row outlives the definition it allowed; a row whose module is not in the tree is not stale
    tree = {"cli": "def fwpub_main():\n    pass\n", "vendor": "def load():\n    return load\n"}
    assert check_api.stale_allowed(tree) == [("vendor", "vendor.read_publication")]
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for module, source in tree.items():
        (pkg / f"{module}.py").write_text(source)
    assert check_api.main([str(pkg)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{pkg / 'vendor.py'}: vendor.read_publication is allowed but not defined in {pkg}"]
    (pkg / "vendor.py").write_text("def read_publication():\n    pass\n")
    assert check_api.main([str(pkg)]) == 0
