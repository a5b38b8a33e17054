"""Self-checks of the benchmark: metric definitions, determinism of the traced
counts, detection of changed outputs, and refusal to run without the program.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

RECORDED_SEED = 0  # chain-sweep digests for this seed are in bench/golden.json


def _copy_checkout(dest: Path, with_src: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=checkout,
        capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_traced_counts_repeat_at_one_seed(tmp_path):
    fw = run.import_fwdist()
    workload = run.WORKLOADS["chain-sweep"]
    expected = run.load_golden()["chain-sweep"][str(RECORDED_SEED)]
    reports = []
    for _ in range(2):
        reports.append(run.measure(workload, fw, tmp_path, RECORDED_SEED, 0, True, expected))
    counts = [{k: v for k, v in r["metrics"].items() if not tracing.is_time(k)} for r in reports]
    assert counts[0] == counts[1]
    # tracing must not change what the program computes
    assert [r["failed"] for r in reports] == [0, 0]
    # only the harness/cli metrics of paths this workload does not take
    assert set(reports[0]["missing"]) == {"harness.write_s", "harness.tables_s", "cli.self_s"}
    assert counts[0]["vendor.tag_chunk.publish"] == 2 * sum(run.CHAIN_COUNTS) * run.CHAIN_SEEDS


def test_missing_entry_point_is_reported_missing_not_zero(tmp_path, monkeypatch):
    renamed = [(layer, module, "UpdateAgent.on_manifest_renamed" if q == "UpdateAgent.on_manifest" else q)
               for layer, module, q in tracing.ENTRY_POINTS]
    monkeypatch.setattr(tracing, "ENTRY_POINTS", renamed)
    fw = run.import_fwdist()
    report = run.measure(run.WORKLOADS["chain-sweep"], fw, tmp_path, RECORDED_SEED, 0, True, None)
    assert "agent.on_manifest.calls" in report["missing"]
    assert "agent.on_manifest.calls" not in report["metrics"]
    assert "agent.on_chunk.calls" in report["metrics"]

    with tracing.Tracer() as tracer:
        pass  # nothing ran in this process, as when simulations move to workers
    assert tracing.per_layer(tracer, None) == {}


def test_changed_rng_draw_is_reported_through_failed_runs(tmp_path):
    good = _result(_bench(_copy_checkout(tmp_path / "good"), "--workload", "chain-sweep",
                          "--seed", str(RECORDED_SEED), "--seconds", "0", "--trace", "0"))
    assert good["correct"] and good["failed"] == 0 and good["attempted"] > 0

    mutant = _copy_checkout(tmp_path / "mutant")
    sim_py = mutant / "src" / "fwdist" / "sim.py"
    source = sim_py.read_text()
    draw = "(1 << attempt) * link.base_slot_us + 1)"
    assert source.count(draw) == 1
    sim_py.write_text(source.replace(draw, "(1 << attempt) * link.base_slot_us + 2)"))
    bad = _result(_bench(mutant, "--workload", "chain-sweep", "--seed", str(RECORDED_SEED),
                         "--seconds", "0", "--trace", "0"))
    assert not bad["correct"]
    assert 0 < bad["failed"] <= bad["attempted"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program(tmp_path, trace):
    proc = _bench(_copy_checkout(tmp_path, with_src=False), "--workload", "paper",
                  "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
