#!/usr/bin/env python3
"""Record the expected output digests of every workload for a range of seeds.

    python3 bench/record_golden.py --seeds 0-31

Runs each workload once per seed, checks installed images as the benchmark
does, and writes the SHA-256 digests of each simulation's ``metrics.csv``
and ``summary.json`` to ``bench/golden.json``. Record only from code whose
outputs are accepted: the benchmark counts any later difference as a
failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    fw = run.import_fwdist()
    golden = run.load_golden()
    run.OUT_DIR.mkdir(exist_ok=True)
    work = run.OUT_DIR / f"record-{os.getpid()}"
    capture = run.Capture(fw["sim"].Simulation)
    try:
        with capture:
            for name, workload in run.WORKLOADS.items():
                for seed in range(first, last + 1):
                    work.mkdir()
                    workload.prepare(work, seed)
                    sample = run.run_iteration(workload, fw, work, seed, capture, None)
                    shutil.rmtree(work)
                    if sample.failed:
                        print(f"{name} seed {seed}: {sample.problems}", file=sys.stderr)
                        return 1
                    golden.setdefault(name, {})[str(seed)] = sample.digests
                    print(f"{name} seed {seed}: {len(sample.digests)} runs recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # one line per workload and seed: [[metrics.csv sha256, summary.json sha256], ...]
    lines = []
    for name in sorted(golden):
        seeds = sorted(golden[name], key=int)
        rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(golden[name][s])}" for s in seeds)
        lines.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    run.GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
