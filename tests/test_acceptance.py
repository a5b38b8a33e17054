"""Acceptance suite: each test prints one PASS/FAIL line (run with -s to see
them live). The paper-scale ensemble (31 nodes, 1000 chunks, 10 seeds, both
strategies) is built once and shared across the criteria that read it.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fwdist
from fwdist.harness import OverheadModel, overhead_report
from fwdist.scenario import scenario_from_dict
from fwdist.sim import run_simulation

MODULE_T0 = time.time()

SEEDS = list(range(1, 11))
PATH = [f"n{i}" for i in range(1, 8)]

CHAIN3 = {'nodes': [{'id': 'gw', 'parent': None}, {'id': 'n1', 'parent': 'gw'},
                    {'id': 'n2', 'parent': 'n1'}, {'id': 'n3', 'parent': 'n2'}]}


def criterion(label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {verdict}{suffix}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def ensemble():
    """10 seeds x {concurrent, cascading} on the testbed preset, 1000 chunks."""
    runs = {}
    for strategy in ("concurrent", "cascading"):
        for seed in SEEDS:
            sc = scenario_from_dict({
                "strategy": strategy, "image_size": 32000, "chunk_size": 32,
                "seed": seed, "duration_s": 3600,
            })
            runs[(strategy, seed)] = run_simulation(sc)
    return runs


# -- criterion 1: overhead calculator exactness -----------------------------------------

def test_criterion_1_overhead_exactness():
    t0 = time.time()
    plain = OverheadModel(mtu=128, name_bytes=16, structural_bytes=16,
                          link_header_bytes=23, signature_bytes=64)
    compressed = OverheadModel(compression_enabled=True)
    r36 = overhead_report(plain, 36 * 1024)
    r144 = overhead_report(plain, 144 * 1024)
    elapsed = time.time() - t0
    ok = (
        plain.payload_capacity() == 9
        and compressed.payload_capacity() == 35
        and r36["signature_overhead_bytes"] == 262144
        and r144["signature_overhead_bytes"] == 1048576
        and elapsed < 1.0
    )
    criterion("1 overhead-exactness", ok,
              f"capacity {plain.payload_capacity()}/{compressed.payload_capacity()}, "
              f"overheads {r36['signature_overhead_bytes']}/{r144['signature_overhead_bytes']}, "
              f"{elapsed:.3f}s")


# -- criterion 2: end-to-end integrity ----------------------------------------------------

def test_criterion_2_end_to_end_integrity():
    t0 = time.time()
    rng = random.Random(20210922)
    mismatches = 0
    for _ in range(200):
        size = rng.randint(1, 8192)
        chunk = rng.choice([8, 16, 32, 64])
        sc = scenario_from_dict({
            "strategy": "concurrent", "image_size": size, "chunk_size": chunk,
            "seed": rng.randrange(1 << 30), "duration_s": 3600, "topology": CHAIN3,
            "link": {"mtu_bytes": 256},  # 64-byte chunks need a roomier link layer
        })
        result = run_simulation(sc)
        for stats in result.node_stats.values():
            if stats["installed_bytes"] != result.images[stats["device_class"]]:
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    criterion("2 end-to-end-integrity", ok, f"200 trials, {mismatches} mismatches, {elapsed:.1f}s")


# -- criterion 3: paper-scale experiment shape ----------------------------------------------

def test_criterion_3a_concurrent_leaders(ensemble):
    hits = 0
    for seed in SEEDS:
        r = ensemble[("concurrent", seed)]
        installs = {n: r.node_stats[n]["install_time_us"] for n in PATH}
        if any(v is None for v in installs.values()):
            continue
        if max(installs["n1"], installs["n2"]) < min(installs[n] for n in PATH[2:]):
            hits += 1
    criterion("3a concurrent-n1-n2-first", hits >= 8, f"{hits}/10 seeds")


def test_criterion_3b_cascading_rank_order_and_faster_fetches(ensemble):
    order_hits = 0
    span_hits = {n: 0 for n in PATH}
    for seed in SEEDS:
        casc = ensemble[("cascading", seed)]
        installs = [casc.node_stats[n]["install_time_us"] for n in PATH]
        if all(v is not None for v in installs) and installs == sorted(installs):
            order_hits += 1
        conc = ensemble[("concurrent", seed)]
        for n in PATH:
            a = casc.node_stats[n]["fetch_span_us"]
            b = conc.node_stats[n]["fetch_span_us"]
            if a is not None and b is not None and a < b:
                span_hits[n] += 1
    ok = order_hits == 10 and all(v >= 8 for v in span_hits.values())
    criterion("3b cascading-rank-order", ok,
              f"order {order_hits}/10, span wins {sorted(span_hits.items())}")


def test_criterion_3c_concurrent_faster_globally(ensemble):
    hits = 0
    minutes_order = True
    for seed in SEEDS:
        conc = ensemble[("concurrent", seed)].completion_time_us(PATH)
        casc = ensemble[("cascading", seed)].completion_time_us(PATH)
        if conc is not None and casc is not None and conc < casc:
            hits += 1
        # calibration sanity: the 1000-chunk path completes in minutes order
        if conc is None or not 60_000_000 < conc < 1_800_000_000:
            minutes_order = False
    criterion("3c concurrent-global-first", hits >= 8 and minutes_order,
              f"{hits}/10 seeds, minutes-order {minutes_order}")


# -- criterion 4: link-stress contrast ----------------------------------------------------------

def test_criterion_4_link_stress(ensemble):
    retx_hits = 0
    chunk0_hits = 0
    for seed in SEEDS:
        conc = ensemble[("concurrent", seed)].node_stats["n7"]["net_retx"]
        casc = ensemble[("cascading", seed)].node_stats["n7"]["net_retx"]
        if casc < conc:
            retx_hits += 1
        app = [cid for (t, n, ev, cid, d) in ensemble[("cascading", seed)].records
               if n == "n7" and ev == "AppRetx" and cid is not None]
        if app and sum(1 for c in app if c == 0) >= 0.9 * len(app):
            chunk0_hits += 1
    ok = retx_hits >= 8 and chunk0_hits >= 8
    criterion("4 link-stress-contrast", ok,
              f"lower-casc-netretx {retx_hits}/10, chunk0-concentration {chunk0_hits}/10")


# -- criterion 5: DoS early exit -------------------------------------------------------------------

def test_criterion_5_dos_early_exit():
    abort_ok = 0
    for seed in SEEDS:
        sc = scenario_from_dict({
            "strategy": "concurrent", "image_size": 2048, "chunk_size": 32,
            "seed": seed, "duration_s": 1800, "topology": CHAIN3,
            "attacker": {"edge": ["n2", "n3"], "mode": "tamper_payload", "rate": 1.0},
        })
        r = run_simulation(sc)
        fails = [(t, cid) for (t, n, ev, cid, d) in r.records if n == "n3" and ev == "TagFail"]
        aborts = [t for (t, n, ev, cid, d) in r.records if n == "n3" and ev == "Abort"]
        if len(fails) != 3 or len({cid for _, cid in fails}) != 1 or not aborts:
            continue
        after = [ev for (t, n, ev, cid, d) in r.records
                 if n == "n3" and t > aborts[0] and cid is not None
                 and ev in ("InterestSent", "AppRetx", "NetRetx")]
        if not after and r.node_stats["n3"]["aborted"]:
            abort_ok += 1
    integrity_ok = 0
    for seed in SEEDS:
        sc = scenario_from_dict({
            "strategy": "concurrent", "image_size": 2048, "chunk_size": 32,
            "seed": seed, "duration_s": 1800, "topology": CHAIN3,
            "attacker": {"edge": ["n2", "n3"], "mode": "tamper_payload", "rate": 0.05},
        })
        r = run_simulation(sc)
        if all(s["installed_bytes"] == r.images[s["device_class"]] for s in r.node_stats.values()):
            integrity_ok += 1
    ok = abort_ok == 10 and integrity_ok == 10
    criterion("5 dos-early-exit", ok,
              f"exact-3-failure aborts {abort_ok}/10, low-rate integrity {integrity_ok}/10")


# -- criterion 6: replication resilience -------------------------------------------------------------

def test_criterion_6_replication_resilience():
    hits = 0
    for seed in SEEDS:
        sc = scenario_from_dict({
            "strategy": "cascading", "image_size": 6400, "chunk_size": 32,
            "seed": seed, "duration_s": 3600,
            "outage": {"edge": ["gw", "n1"], "after_install": "n1"},
        })
        r = run_simulation(sc)
        if all(r.node_stats[n]["install_time_us"] is not None for n in PATH[1:]):
            hits += 1
    criterion("6 replication-resilience", hits == 10, f"{hits}/10 seeds, n2..n7 complete")


# -- criterion 7: multiparty contrast ------------------------------------------------------------------

def test_criterion_7_multiparty_contrast():
    hits = 0
    ratios = []
    for seed in SEEDS:
        times = {}
        for multiparty in (False, True):
            sc = scenario_from_dict({
                "strategy": "concurrent", "image_size": 12800, "chunk_size": 32,
                "seed": seed, "duration_s": 7200, "multiparty": multiparty,
            })
            r = run_simulation(sc)
            done = r.completed_nodes()
            times[multiparty] = r.completion_time_us(done) if len(done) == 30 else None
        if times[False] and times[True]:
            ratio = times[True] / times[False]
            ratios.append(round(ratio, 2))
            if ratio >= 2.0:
                hits += 1
    criterion("7 multiparty-contrast", hits >= 8, f"{hits}/10 seeds >=2x, ratios {ratios}")


# -- criterion 8: determinism ----------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    raw = {"strategy": "cascading", "image_size": 3200, "chunk_size": 32,
           "seed": 42, "duration_s": 1800, "topology": CHAIN3}
    a = run_simulation(scenario_from_dict(raw))
    b = run_simulation(scenario_from_dict(raw))
    in_process = list(a.csv_lines()) == list(b.csv_lines())

    # cross-process, with adversarial hash randomization. The environment is
    # minimal so no outside PYTHON* setting leaks in; PYTHONPATH points at the
    # directory holding the fwdist imported here, so each child runs the same
    # code whether it comes from a checkout or from an installed package.
    scenario_file = tmp_path / "det.json"
    scenario_file.write_text(json.dumps(raw))
    package_root = str(Path(fwdist.__file__).resolve().parents[1])
    outputs = []
    for i, hash_seed in enumerate(("1", "271828")):
        out = tmp_path / f"out{i}"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from fwdist.cli import fwsim_main; sys.exit(fwsim_main())",
             "run", str(scenario_file), "--out", str(out)],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "metrics.csv").read_bytes())
    cross_process = outputs[0] == outputs[1]
    ok = in_process and cross_process
    criterion("8 determinism", ok, f"in-process {in_process}, cross-process {cross_process}")


# -- criterion 9: forwarder unit properties ------------------------------------------------------------------

def test_criterion_9_forwarder_reference_properties():
    import itertools
    from fwdist.forwarder import ContentStore, Forwarder, Forward
    from fwdist.naming import BaseName
    from fwdist.packets import Data, HmacTag, Interest

    base = BaseName("d", "v", "c", 10)
    counter = itertools.count(1000)
    fwd = Forwarder(nonce_source=lambda: next(counter))

    # PIT aggregation: N downstream -> exactly one upstream Interest
    upstream = 0
    for face in range(5):
        actions = fwd.on_interest(face, Interest(base.chunk(0), nonce=face + 1), now=0)
        upstream += sum(isinstance(a, Forward) for a in actions)
    aggregation_ok = upstream == 1 and fwd.pit[base.chunk(0)].downstream_faces == [0, 1, 2, 3, 4]

    # exactly 3 retransmissions at 2000 ms spacing, then timeout
    fwd2 = Forwarder(nonce_source=lambda: next(counter))
    fwd2.on_local_interest(Interest(base.chunk(1), nonce=1), now=0)
    events = []
    for ms in range(0, 10001):
        for action in fwd2.tick_retransmissions(ms * 1000):
            events.append((ms, type(action).__name__))
    schedule_ok = events == [(2000, "Retransmit"), (4000, "Retransmit"),
                             (6000, "Retransmit"), (8000, "Timeout")]

    # CS capacity-64 LRU against a brute-force reference table
    rng = random.Random(64)
    cs = ContentStore(64)
    reference: list = []  # (name, payload) oldest-use first
    lru_ok = True
    for step in range(5000):
        idx = rng.randrange(200)
        d = Data(base.chunk(idx), bytes([idx % 251]), HmacTag(b"\x00" * 8))
        if rng.random() < 0.5:
            hit = next((i for i, (n, _) in enumerate(reference) if n == d.name), None)
            if hit is not None:
                reference.append(reference.pop(hit))
                expected = reference[-1][1]
            else:
                expected = None
            got = cs.lookup(d.name)
            lru_ok &= (got.payload if got else None) == expected
        else:
            hit = next((i for i, (n, _) in enumerate(reference) if n == d.name), None)
            expected_evict = None
            if hit is not None:
                reference.pop(hit)
            elif len(reference) >= 64:
                expected_evict = reference.pop(0)[0]
            reference.append((d.name, d.payload))
            lru_ok &= cs.insert(d) == expected_evict
        lru_ok &= len(cs) == len(reference) <= 64
    ok = aggregation_ok and schedule_ok and lru_ok
    criterion("9 forwarder-unit-properties", ok,
              f"aggregation {aggregation_ok}, retx-schedule {schedule_ok}, lru-64 {lru_ok}")


# -- runtime budget ------------------------------------------------------------------------------------------

def test_acceptance_runtime_budget():
    elapsed = time.time() - MODULE_T0
    criterion("runtime-budget", elapsed < 600.0, f"{elapsed:.0f}s < 600s")
