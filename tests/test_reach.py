"""``tools/reach.py``, which lists the statements of ``src/fwdist`` that the equivalence corpus
never executes."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TWO_BRANCHES = textwrap.dedent('''\
    """A module with two branches."""


    def pick(flag):
        """Only one branch runs per call."""
        if flag:
            value = "left"
        else:
            value = (
                "right")
        return value
''')


def _load(path: Path):
    spec = importlib.util.spec_from_file_location("two_branches", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_branch_that_no_call_takes_is_reported_at_its_first_line(tmp_path):
    path = tmp_path / "two_branches.py"
    path.write_text(TWO_BRANCHES, encoding="utf-8")
    executed = reach.trace_lines([path], lambda: _load(path).pick(True))
    assert reach.unreached(TWO_BRANCHES, executed[str(path)]) == [9]


def test_a_module_whose_branches_all_run_has_nothing_unreached(tmp_path):
    path = tmp_path / "two_branches.py"
    path.write_text(TWO_BRANCHES, encoding="utf-8")

    def both():
        module = _load(path)
        module.pick(True)
        module.pick(False)

    assert reach.unreached(TWO_BRANCHES, reach.trace_lines([path], both)[str(path)]) == []


def test_a_module_never_imported_is_reported_whole_but_its_docstrings():
    assert reach.unreached(TWO_BRANCHES, set()) == [4, 6, 7, 9, 11]


def test_a_decorated_definition_runs_on_its_decorator_line():
    source = "@staticmethod\ndef f():\n    pass\n"
    assert reach.unreached(source, {1}) == [3]
