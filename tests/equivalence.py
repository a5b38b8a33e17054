#!/usr/bin/env python3
"""Equivalence corpus: a fixed list of small scenarios and the digests of their outputs.

    PYTHONPATH=src python3 tests/equivalence.py

records the SHA-256 of each case's ``csv_lines()`` (the bytes of
``metrics.csv``) and of the ``summary.json`` bytes that ``fwsim run`` writes
into ``tests/equivalence.json``; ``tests/test_equivalence.py`` checks them.
Re-record only for a change that alters behaviour on purpose, and say why
in CHANGES.md.

Every case is a 3-hop chain, or the 4-hop chain of the ``divert`` shape, with
an image of 640 to 6,400 bytes, run under both strategies at three seeds, so
that the paths ``tests/test_golden.py`` leaves out are locked: each attacker
mode, both outage kinds, tag
truncations of 16 and 32 bytes, multiparty publishing, a PIT of one entry,
zero retry budgets, NACKs, node delays, heavy loss, no poll stagger, polls for
an epoch that was never published and chunk diversion.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from fwdist.scenario import STRATEGIES, scenario_from_dict
from fwdist.sim import run_simulation

DIGESTS_PATH = Path(__file__).with_name("equivalence.json")

CHAIN3 = {"nodes": [{"id": "gw", "parent": None}, {"id": "n1", "parent": "gw"},
                    {"id": "n2", "parent": "n1"}, {"id": "n3", "parent": "n2"}]}
CHAIN4 = {"nodes": CHAIN3["nodes"] + [{"id": "n4", "parent": "n3"}]}
BASE = {"topology": CHAIN3, "image_size": 640, "chunk_size": 32, "duration_s": 1800}


def _attack(mode: str, rate: float, edge=("n2", "n3")) -> dict:
    return {"attacker": {"edge": list(edge), "mode": mode, "rate": rate}}


SHAPES = {
    "plain": {"image_size": 1280},
    "tamper-payload": {"image_size": 2048, **_attack("tamper_payload", 0.1)},
    "forge-tag": {"image_size": 2048, **_attack("forge_tag", 0.1)},
    "replay-stale": {"image_size": 2048, **_attack("replay_stale", 0.1)},
    # a short last chunk, and n2 forwards what it is sent to n3 before its agent checks it,
    # so a replay of the wrong stale chunk changes the size of a frame
    "replay-stale-mid": {"image_size": 650, "chunk_size": 128,
                         **_attack("replay_stale", 0.3, edge=("n1", "n2"))},
    "replay-stale-all": {"image_size": 650, **_attack("replay_stale", 1.0)},
    "forge-tag-all": _attack("forge_tag", 1.0),
    "trunc16-forge-tag": {"trunc_len": 16, **_attack("forge_tag", 0.2)},
    "trunc32-replay-stale": {"image_size": 650, "trunc_len": 32, **_attack("replay_stale", 0.2)},
    "multiparty": {"image_size": 1600, "multiparty": True},
    "multiparty-replay-stale": {"image_size": 650, "multiparty": True, **_attack("replay_stale", 0.2)},
    "outage-at": {"image_size": 3200, "outage": {"edge": ["n1", "n2"], "at_s": 2.0}},
    "outage-after-install": {"image_size": 6400,
                             "outage": {"edge": ["gw", "n1"], "after_install": "n1"}},
    # one class per device, so no two Interests aggregate and the PIT fills
    "pit-capacity-1": {"multiparty": True, "poll_stagger_s": 0, "node": {"pit_capacity": 1}},
    "zero-retries": {"loss": {"per_transmission": 0.2},
                     "link": {"retries": 0},
                     "agent": {"manifest_retries": 0, "digest_retries": 0}},
    "nacks": {"nacks_enabled": True, "poll_period_s": 30, "epoch": 1632261660,
              "granularity": {"period_s": 300, "offset_s": 0}, "duration_s": 200},
    "node-delays": {"node": {"flash_write_us": 3000, "turnaround_us": 500,
                             "verify_delay_us": 7000, "install_delay_us": 100}},
    "heavy-loss": {"loss": {"per_transmission": 0.4, "collision": 0.9}},
    "no-stagger": {"poll_stagger_s": 0},
    # the default epoch is off this grid, so every poll asks for an epoch that was never
    # published, and with NACKs off the gateway answers nothing
    "no-data": {"granularity": {"period_s": 86400, "offset_s": 0}, "poll_period_s": 300},
    # concurrent at seed 3 diverts chunks into a fetching agent's buffer
    "divert": {"topology": CHAIN4, "loss": {"per_transmission": 0.4, "collision": 0.9},
               "poll_stagger_s": 0},
}
SEEDS = (1, 2, 3)


def _case(shape: dict, strategy: str, seed: int) -> dict:
    return {**BASE, **shape, "strategy": strategy, "seed": seed}


CASES = {f"{name}-{strategy}-{seed}": _case(shape, strategy, seed)
         for name, shape in SHAPES.items() for strategy in STRATEGIES for seed in SEEDS}


def digests(raw: dict) -> list[str]:
    """SHA-256 of the ``metrics.csv`` and ``summary.json`` bytes of one run of ``raw``."""
    result = run_simulation(scenario_from_dict(raw))
    metrics = hashlib.sha256()
    for line in result.csv_lines():
        metrics.update(line.encode("utf-8") + b"\n")
    summary = json.dumps(result.summary(), indent=2, sort_keys=True) + "\n"
    return [metrics.hexdigest(), hashlib.sha256(summary.encode("utf-8")).hexdigest()]


def main() -> int:
    lines = [f"  {json.dumps(name)}: {json.dumps(digests(raw))}" for name, raw in CASES.items()]
    DIGESTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(lines)} cases recorded in {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
