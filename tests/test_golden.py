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
    # pollers ask for the next period's epoch, which is not published: the
    # gateway answers each with a no-data NACK
    "paper-nack": {
        "topology": "paper", "strategy": "concurrent", "image_size": 320, "chunk_size": 32,
        "seed": 1, "duration_s": 200, "poll_period_s": 30, "epoch": 1632261660,
        "granularity": {"period_s": 300, "offset_s": 0}, "nacks_enabled": True,
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
    "paper-nack": ("75e950345b0e2d87652b04b89275fa9ccd64301fa5e658ac60c9863a963a34d5",
                   "96e41363a89d43a164e434bf337b3ad203a89ee2a7f66335ca7842ffd45a9f15"),
}


# case -> sha256 of the progress, rate and retx tables ``fwsim tables`` writes
# from that case's metrics.csv (default block size)
TABLE_KINDS = ("progress", "rate", "retx")
GOLDEN_TABLES = {
    "chain3-tamper": ("b1b907d5ce6565119f308d08a2ed34685ed19ecc2db93eacf5e706ca4fa40f34",
                      "76c83353b03fd69dc1f17126c103c6ba65a903694f51454f90016bf0b56ad858",
                      "42ef1c852562330caddedd989054b58734f1356d3eab295effb039d2c68ea150"),
    "paper-cascading": ("6d4f8b440693097a397ca95f3a2ef2abc829f9a197674e75c573ae7ec0471bc1",
                        "c0f8f7cfce1c16c63812ab6aee2af89c4f871b500968a5571b014fd1f9e2d506",
                        "23b3e22d74ec752b5abd46f4bc87a1481e65b143a06205eb44ec652d6b07e13e"),
    "paper-concurrent": ("b269884412560aa6de0bb02b660ea6d489b2916bb6ee3b8d122019227820fa17",
                         "9d05c1d24fa284076e0023a0cf1a9cb952721616c39b770769b01d260527cf92",
                         "98ea51ddb469a20eafbe760e7c61238035967c77bf3285e8c780002c3ef8c0d6"),
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    """``fwsim run`` output directory of a matrix case, run once per module."""
    outs = {}

    def out_dir(case: str):
        if case not in outs:
            work = tmp_path_factory.mktemp(case)
            scenario = work / "scenario.json"
            scenario.write_text(json.dumps(MATRIX[case]))
            assert fwsim_main(["run", str(scenario), "--out", str(work / "out")]) == 0
            outs[case] = work / "out"
        return outs[case]
    return out_dir


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_golden_digests(case, run_out):
    out = run_out(case)
    assert (sha256_of(out / "metrics.csv"), sha256_of(out / "summary.json")) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_TABLES))
def test_golden_table_digests(case, run_out):
    out = run_out(case)
    digests = []
    for kind in TABLE_KINDS:
        table = out / f"{kind}.csv"
        assert fwsim_main(["tables", str(out / "metrics.csv"), "--kind", kind, "--out", str(table)]) == 0
        digests.append(sha256_of(table))
    assert tuple(digests) == GOLDEN_TABLES[case]
