"""Behaviour lock: SHA-256 of the files ``fwsim run`` writes, for a fixed matrix.

Criterion 8 only compares a run with itself; this compares every run with the
outputs of the last accepted code. A change that moves a digest changes what
the simulator does. Re-record a digest only for a change that alters
behaviour on purpose, and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from fwdist.cli import fwsim_main

CHAIN3 = {'nodes': [{'id': 'gw', 'parent': None}, {'id': 'n1', 'parent': 'gw'},
                    {'id': 'n2', 'parent': 'n1'}, {'id': 'n3', 'parent': 'n2'}]}

PAPER = {"topology": "paper", "image_size": 32000, "chunk_size": 32,
         "seed": 1, "duration_s": 3600}

MATRIX = {
    "paper-concurrent": dict(PAPER, strategy="concurrent"),
    "paper-cascading": dict(PAPER, strategy="cascading"),
    "chain3-tamper": {
        "strategy": "concurrent", "image_size": 2048, "chunk_size": 32,
        "seed": 1, "duration_s": 1800, "topology": CHAIN3,
        "attacker": {"edge": ["n2", "n3"], "mode": "tamper_payload", "rate": 0.05},
    },
    "cascading-outage": {
        "strategy": "cascading", "image_size": 6400, "chunk_size": 32,
        "seed": 1, "duration_s": 3600,
        "outage": {"edge": ["gw", "n1"], "after_install": "n1"},
    },
    "multiparty-small": {
        "strategy": "concurrent", "image_size": 3200, "chunk_size": 32,
        "seed": 1, "duration_s": 3600, "multiparty": True,
    },
}

# case -> (sha256 of metrics.csv, sha256 of summary.json)
GOLDEN = {
    "cascading-outage": ("47411139c533d143e999dc7c79d6d0daacda7ce916f0b448feb4cc573d6e406d",
                         "74bb95f6f78ba29ca9d9a520c25093a228d0921b7bb9821aea623138c88952f2"),
    "chain3-tamper": ("63531d2228ef3c1e098066b4db01095ffeea7a28523d3d32cf8d23d1bdc04f55",
                      "8a513937e172fc50086742390bee5c987890e30ff51dcd21783bac4ce854a463"),
    "multiparty-small": ("ca3ee157905d86b0bf00f96e7c912abf8a88f13260a7483bef39e5434225c687",
                         "078f36037e630d799de390026299620ca9364791cf30d4fb10a36b58a95eca56"),
    "paper-cascading": ("7358f647ba2e2d77042c7705f776a9af0cb3ee64cb84fabdb3114184aa593f0f",
                        "ccf313d4cc45b464dd2e902af46202b10181670674a4722bbf4be7ece2edf1dd"),
    "paper-concurrent": ("4158a9890b5eb72b7837e415b70cdb365cf837c24bc3f5259f14f570cc06e83c",
                         "5ea2710f78aba00b44f0b452109c4fc70ddd44cc11f4d9ccc9d7f1039d41c226"),
}


def run_digests(tmp_path, raw: dict) -> tuple[str, str]:
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert fwsim_main(["run", str(scenario), "--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("metrics.csv", "summary.json"))


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_golden_digests(case, tmp_path, capsys):
    assert run_digests(tmp_path, MATRIX[case]) == GOLDEN[case]
