#!/usr/bin/env python3
"""Run the benchmark on a parent and a changed checkout in alternating pairs, and
write one ``BENCH_*.json`` record of the result.

    python3 tools/bench_record.py --parent ../parent --change . --out BENCH_6.json

Both checkouts must hold ``bench/run.py`` and ``BENCHMARK.json``; the
workloads, metrics and bounds are read from the change's ``BENCHMARK.json``.
There are ``PAIRS`` pairs; pair ``i`` runs every workload at seed
``FIRST_SEED + i`` on both sides, as

    python3 bench/run.py --workload W --seed N --seconds 40 --trace 0

from the checkout's root, and alternates which side runs first. After each
run the script reads the report that run wrote to the checkout's
``.bench_out/`` and keeps its end-to-end metrics, its failed and attempted
runs and its host record.

The record holds the machine, every pair with the side that ran first, and,
per workload and metric, each side's samples, quartiles and median, the
median change, the pairs the change won (ties count for neither side) and a
verdict:

- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the parent's own spread (interquartile range over median)
  is wider than the bound, and not every run of the change reads better than
  every run of the parent;
- ``within bound`` otherwise.

A workload whose change side fails a larger share of its runs than the
parent side is a regression too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # the fewest pairs a gain or a regression is judged on
SECONDS = 40.0
FIRST_SEED = 1


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``; its report from ``.bench_out/``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": report["metrics"], "failed": report["failed"],
            "attempted": report["attempted"], "host": report["host"]}


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "q1": q1, "median": median, "q3": q3}


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Compare one metric's paired samples against its bound."""
    sign = 1 if metric["better"] == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    every_run_better = (max(change) < min(parent)) if sign == 1 else (min(change) > max(parent))
    if worse_by > metric["bound"]:
        verdict = "regression"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c, "median_change": (c["median"] - p["median"]) / p["median"],
            "parent_spread": spread, "change_wins": f"{wins}/{len(parent)}", "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed)
                print(f"pair {i + 1}/{PAIRS} {workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'], sort_keys=True)}", flush=True)
            pairs.append(pair)

    results = {}
    for workload in workloads:
        runs = [p for p in pairs if p["workload"] == workload]
        failed = {side: [sum(r[side][k] for r in runs) for k in ("failed", "attempted")]
                  for side in sides}
        metrics = {m["name"]: judge(m, [r["parent"]["metrics"][m["name"]] for r in runs],
                                    [r["change"]["metrics"][m["name"]] for r in runs])
                   for m in benchmark["end_to_end"]}
        more_failed = failed["change"][0] * failed["parent"][1] > failed["parent"][0] * failed["change"][1]
        verdicts = {m["verdict"] for m in metrics.values()}
        results[workload] = {
            "failed": {side: f"{f}/{a}" for side, (f, a) in failed.items()},
            "verdict": "regression" if more_failed or "regression" in verdicts
                       else "unresolved" if "unresolved" in verdicts else "no regression",
            "metrics": metrics,
        }
    host = pairs[0]["parent"]["host"]
    record = {
        "machine": {k: host[k] for k in ("cpu_model", "nproc", "python", "platform")},
        "command": f"python3 bench/run.py --workload W --seed N --seconds {SECONDS:g} --trace 0",
        "pairs": [{"workload": p["workload"], "seed": p["seed"], "first": p["first"],
                   **{side: {"failed": p[side]["failed"], "attempted": p[side]["attempted"],
                             "loadavg_start": p[side]["host"]["loadavg_start"],
                             **p[side]["metrics"]} for side in sides}} for p in pairs],
        "workloads": results,
        "verdict": {w: r["verdict"] for w, r in results.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in results.items():
        print(f"{workload}: {result['verdict']} (failed {result['failed']})")
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['parent']['median']:12.4f} -> {m['change']['median']:12.4f} "
                  f"{m['median_change']:+7.1%}  wins {m['change_wins']:>5s}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
