"""Behaviour lock over the equivalence corpus of ``tests/equivalence.py``.

Each case's outputs must match the digests recorded in
``tests/equivalence.json`` byte for byte.
"""

import json

import pytest

from equivalence import CASES, DIGESTS_PATH, digests

RECORDED = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_equivalence_digests(case):
    assert digests(CASES[case]) == RECORDED[case]
