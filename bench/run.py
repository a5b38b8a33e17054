#!/usr/bin/env python3
"""Host-time benchmark of fwdist: the `paper`, `multiparty` and `chain-sweep` workloads.

Run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload in turn, 30 s each

The program is imported from ``src/`` of the checkout the script sits in.
A workload repeats while the next repetition is expected to end within
``--seconds`` of host time, and runs at least once. Every simulation it
runs is checked: each installed image must equal the published one byte for
byte, outputs must repeat across repetitions, and for seeds listed in
``bench/golden.json`` the SHA-256 digests of ``metrics.csv`` and
``summary.json`` must match the recorded ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced repetition and then traced ones, and reports per-layer metrics
taken by wrapping fwdist's entry points from outside (see
``bench/tracing.py``). Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full report, with the host
description, every sample and the recorded spans, is written to
``.bench_out/``. See ``bench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402  (bench-local module; needs the path entry above)

FWDIST_MODULES = ("sim", "scenario", "harness", "cli")

# Set-up-only passes make setup_s a mean over at least this many samples
# even when only two or three repetitions of a workload fit.
SETUP_SAMPLES = 25


class BenchError(Exception):
    """The benchmark cannot run here (for example, fwdist is not importable)."""


def import_fwdist() -> dict:
    """Import fwdist from ``src/`` of this checkout, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"fwdist.{name}") for name in FWDIST_MODULES}
    except ImportError as exc:
        raise BenchError(f"cannot import fwdist from {src}: {exc}") from exc
    location = Path(sys.modules["fwdist"].__file__).resolve().parent
    if location != src / "fwdist":
        raise BenchError(f"fwdist was imported from {location}, not from {src}")
    return modules


# ---------------------------------------------------------------------------
# workloads

CHUNK = 32
PAPER_BASE = {"topology": "paper", "image_size": 1000 * CHUNK, "chunk_size": CHUNK,
              "duration_s": 3600}
STRATEGIES = ("concurrent", "cascading")
TABLE_KINDS = ("progress", "rate", "retx")
MULTIPARTY = {"topology": "paper", "strategy": "concurrent", "multiparty": True,
              "image_size": 400 * CHUNK, "chunk_size": CHUNK, "duration_s": 3600}
CHAIN = {
    "topology": {"nodes": [
        {"id": "gw", "parent": None},
        {"id": "n1", "parent": "gw"},
        {"id": "n2", "parent": "n1"},
        {"id": "n3", "parent": "n2"},
    ]},
    "strategy": "concurrent",
    "image_size": 64 * CHUNK,
    "chunk_size": CHUNK,
    "duration_s": 3600,
    "attacker": {"edge": ["n2", "n3"], "mode": "tamper_payload", "rate": 0.05},
}
CHAIN_COUNTS = (64, 128, 256)
CHAIN_SEEDS = 4  # sweep seeds per chunk count


def _fwsim(fw: dict, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = fw["cli"].fwsim_main(argv)
    if code != 0:
        raise RuntimeError(f"fwsim {' '.join(argv)} exited with code {code}")


class Workload:
    """One workload: the simulations of one repetition and how to run them."""

    name = ""
    aborts_allowed = False

    def scenarios(self, seed: int) -> list[dict]:
        """The scenario of every simulation one repetition runs, in order."""
        raise NotImplementedError

    def prepare(self, work: Path, seed: int) -> None:
        """Write input files into ``work`` before the first repetition."""

    def iterate(self, fw: dict, work: Path, seed: int) -> None:
        raise NotImplementedError

    def written_outputs(self, work: Path) -> list[Path] | None:
        """Directories holding each simulation's metrics.csv and summary.json, if written."""
        return None


class Paper(Workload):
    """Gateway plus 30 devices, 1000 chunks, concurrent then cascading, via ``fwsim``."""

    name = "paper"

    def scenarios(self, seed: int) -> list[dict]:
        return [dict(PAPER_BASE, strategy=s, seed=seed) for s in STRATEGIES]

    def prepare(self, work: Path, seed: int) -> None:
        for strategy in STRATEGIES:
            (work / f"{strategy}.json").write_text(json.dumps(dict(PAPER_BASE, strategy=strategy)))

    def iterate(self, fw: dict, work: Path, seed: int) -> None:
        for strategy in STRATEGIES:
            out = work / strategy
            _fwsim(fw, ["run", str(work / f"{strategy}.json"), "--seed", str(seed), "--out", str(out)])
            for kind in TABLE_KINDS:
                _fwsim(fw, ["tables", str(out / "metrics.csv"), "--kind", kind,
                            "--out", str(out / f"{kind}.csv")])

    def written_outputs(self, work: Path) -> list[Path] | None:
        return [work / s for s in STRATEGIES]


class Multiparty(Workload):
    """Paper topology, one image per device, 400 chunks, via ``Simulation(...).run()``."""

    name = "multiparty"

    def scenarios(self, seed: int) -> list[dict]:
        return [dict(MULTIPARTY, seed=seed)]

    def iterate(self, fw: dict, work: Path, seed: int) -> None:
        for raw in self.scenarios(seed):
            fw["sim"].Simulation(fw["scenario"].scenario_from_dict(raw)).run()


def chain_seeds(seed: int) -> list[int]:
    return [seed * CHAIN_SEEDS + k for k in range(CHAIN_SEEDS)]


class ChainSweep(Workload):
    """``harness.sweep`` over a dict base: a 3-hop chain with a 5% tampering link."""

    name = "chain-sweep"
    aborts_allowed = True  # per-chunk verification may abort a device under attack

    def scenarios(self, seed: int) -> list[dict]:
        return [dict(CHAIN, image_size=count * CHUNK, seed=s)
                for count in CHAIN_COUNTS for s in chain_seeds(seed)]

    def iterate(self, fw: dict, work: Path, seed: int) -> None:
        table = fw["harness"].sweep(CHAIN, "chunk_count", list(CHAIN_COUNTS), chain_seeds(seed))
        if len(table["rows"]) != len(CHAIN_COUNTS) * CHAIN_SEEDS:
            raise RuntimeError(f"sweep returned {len(table['rows'])} rows")


WORKLOADS = {w.name: w for w in (Paper(), Multiparty(), ChainSweep())}


# ---------------------------------------------------------------------------
# timing of Simulation set-up and run, and capture of every SimResult


class Capture:
    """Wraps ``Simulation.__init__`` and ``Simulation.run`` with two clock reads each."""

    def __init__(self, simulation_cls):
        self.cls = simulation_cls
        self.init_s: list[float] = []
        self.run_s: list[float] = []
        self.results: list = []
        self._originals = (simulation_cls.__init__, simulation_cls.run)

    def __enter__(self):
        orig_init, orig_run = self._originals
        clock = time.perf_counter
        capture = self

        def __init__(sim, *args, **kwargs):
            t0 = clock()
            orig_init(sim, *args, **kwargs)
            capture.init_s.append(clock() - t0)

        def run(sim, *args, **kwargs):
            t0 = clock()
            result = orig_run(sim, *args, **kwargs)
            capture.run_s.append(clock() - t0)
            capture.results.append(result)
            return result

        self.cls.__init__, self.cls.run = __init__, run
        return self

    def __exit__(self, *exc):
        self.cls.__init__, self.cls.run = self._originals

    def reset(self) -> None:
        self.init_s, self.run_s, self.results = [], [], []


# ---------------------------------------------------------------------------
# correctness gate


def result_digests(result) -> list[str]:
    """SHA-256 of metrics.csv and summary.json exactly as ``fwsim run`` writes them."""
    csv = hashlib.sha256()
    for line in result.csv_lines():
        csv.update(line.encode())
        csv.update(b"\n")
    summary = json.dumps(result.summary(), indent=2, sort_keys=True) + "\n"
    return [csv.hexdigest(), hashlib.sha256(summary.encode()).hexdigest()]


def image_error(result, aborts_allowed: bool) -> str | None:
    """Every device that installs must hold the published image byte for byte."""
    epoch = result.scenario.epoch
    for dev, stats in result.node_stats.items():
        if stats["install_time_us"] is not None and stats["installed_epoch"] == epoch:
            if stats["installed_bytes"] != result.images[stats["device_class"]]:
                return f"{dev} installed an image that differs from the published one"
        elif not (aborts_allowed and stats["aborted"]):
            return f"{dev} neither installed nor aborted"
    return None


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    setup_s: float
    sim_s: float
    data_recv: int
    events: dict[str, int] | None  # CSV event counts; None if no run was observed
    digests: list[list[str]]
    failed: int
    problems: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None


def run_iteration(workload, fw: dict, work: Path, seed: int, capture: Capture,
                  expected: list[list[str]] | None) -> Sample:
    """Run the workload once, timed, then check every simulation it ran."""
    planned = len(workload.scenarios(seed))
    capture.reset()
    gc.collect()  # start each repetition from a clean heap, as a fresh fwsim process does
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        workload.iterate(fw, work, seed)
    except Exception:  # a failing workload is reported as failed runs, not a crash
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    problems = [] if error is None else [f"exception: {error.strip()}"]
    results = capture.results
    digests: list[list[str]] = []
    events: dict[str, int] = {}
    failed = 0
    if error is None and len(results) != planned:
        problems.append(f"{len(results)} of {planned} simulations observed in this process")
    written = workload.written_outputs(work) if error is None else None
    for i, result in enumerate(results[:planned]):
        try:
            digest = result_digests(result)
            problem = image_error(result, workload.aborts_allowed)
            if problem is None and written is not None:
                on_disk = [hashlib.sha256((written[i] / f).read_bytes()).hexdigest()
                           for f in ("metrics.csv", "summary.json")]
                if on_disk != digest:
                    problem = "fwsim output files differ from the simulation result"
            if problem is None and expected is not None and digest != expected[i]:
                problem = "metrics.csv/summary.json digests differ from the expected ones"
            for record in result.records:
                events[record[2]] = events.get(record[2], 0) + 1
        except Exception:
            digest, problem = ["", ""], f"check raised: {traceback.format_exc(limit=2).strip()}"
        digests.append(digest)
        if problem is not None:
            failed += 1
            problems.append(f"run {i}: {problem}")
    if error is not None:
        failed = planned
    else:
        failed += planned - min(len(results), planned)
    return Sample(
        wall_s=wall,
        cpu_s=cpu,
        setup_s=sum(capture.init_s),
        sim_s=sum(capture.run_s),
        data_recv=events.get("DataRecv", 0),
        events=events if results else None,
        digests=digests,
        failed=failed,
        problems=problems,
    )


def setup_pass(workload, fw: dict, seed: int, capture: Capture) -> float:
    """Set up (but do not run) every simulation of one repetition of the workload."""
    capture.reset()
    gc.collect()
    for raw in workload.scenarios(seed):
        fw["sim"].Simulation(fw["scenario"].scenario_from_dict(raw))
    return sum(capture.init_s)


# ---------------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s": "s",
    "chunks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def end_to_end(samples: list[Sample], setup_samples: list[float]) -> dict[str, float]:
    """Means over the run's repetitions.

    The host's speed flips between two states about 1.5x apart every few
    seconds. A mean over the whole run averages those flips; the median of
    the two or three repetitions of ``paper`` would follow whichever state
    its middle repetition happened to meet.
    """
    good = [s for s in samples if s.failed == 0]
    if not good:
        return {}
    wall = sum(s.wall_s for s in good)
    return {
        "wall_s": wall / len(good),
        "setup_s": statistics.fmean(setup_samples),
        "sim_s": statistics.fmean(s.sim_s for s in good),
        "chunks_per_s": sum(s.data_recv for s in good) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def process_cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def host_record() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement loop and output


def measure(workload, fw: dict, work: Path, seed: int, seconds: float, trace: bool,
            expected: list[list[str]] | None) -> dict:
    capture = Capture(fw["sim"].Simulation)
    samples: list[Sample] = []
    traced: list[Sample] = []
    setup_samples: list[float] = []
    reference = expected
    start = time.perf_counter()

    def fits(last: Sample) -> bool:
        return time.perf_counter() - start + last.wall_s <= seconds

    with capture:
        if trace:
            samples.append(run_iteration(workload, fw, work, seed, capture, reference))
            reference = reference or samples[0].digests
            while True:
                tracer = tracing.Tracer()
                with tracer:
                    sample = run_iteration(workload, fw, work, seed, capture, reference)
                sample.tracer = tracer
                traced.append(sample)
                if sample.failed or not fits(sample):
                    break
        else:
            while True:
                sample = run_iteration(workload, fw, work, seed, capture, reference)
                samples.append(sample)
                reference = reference or sample.digests
                if sample.failed:
                    break
                setup_samples.append(sample.setup_s)
                # Host speed drifts within a run; spreading the set-up passes
                # over the run lets setup_s see the drift that wall_s sees.
                expected_reps = max(1, int(seconds // samples[0].wall_s))
                for _ in range(-(-SETUP_SAMPLES // expected_reps) - 1):
                    setup_samples.append(setup_pass(workload, fw, seed, capture))
                if not fits(sample):
                    break
            while setup_samples and len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(setup_pass(workload, fw, seed, capture))

    everything = samples + traced
    report = {
        "attempted": len(workload.scenarios(seed)) * len(everything),
        "failed": sum(s.failed for s in everything),
        "problems": [p for s in everything for p in s.problems],
        "samples": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "setup_s": s.setup_s, "sim_s": s.sim_s,
                     "data_recv": s.data_recv, "failed": s.failed, "traced": s.tracer is not None}
                    for s in everything],
        "setup_samples": setup_samples,
    }
    if not trace:
        report["metrics"] = end_to_end(samples, setup_samples)
        report["missing"] = sorted(set(END_TO_END_UNITS) - set(report["metrics"]))
        return report

    layer_runs = [tracing.per_layer(s.tracer, s.events) for s in traced]
    counts = [{k: v for k, v in run.items() if not tracing.is_time(k)} for run in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        report["failed"] += len(workload.scenarios(seed))
        report["problems"].append("per-layer counts differ between traced repetitions")
    metrics = dict(layer_runs[0])
    for name in metrics:
        if tracing.is_time(name):
            metrics[name] = statistics.median(run[name] for run in layer_runs)
    if samples and samples[0].failed == 0:
        metrics["trace.overhead_s"] = statistics.median(s.wall_s for s in traced) - samples[0].wall_s
    metrics["process.cpu_s"] = process_cpu_s()
    report["metrics"] = metrics
    named = list(tracing.PER_LAYER_UNITS) + [name for name, _, _ in tracing.WORKLOAD_SPECIFIC]
    report["missing"] = [name for name in named if name not in metrics]
    report["spans"] = traced[0].tracer.spans
    report["unpatched"] = traced[0].tracer.unpatched
    return report


def run_workload(workload, fw: dict, seed: int, seconds: float, trace: int) -> None:
    """Measure one workload and print its lines, ending with its JSON result line."""
    host = host_record()
    expected = load_golden().get(workload.name, {}).get(str(seed))
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        workload.prepare(work, seed)
        report = measure(workload, fw, work, seed, seconds, bool(trace), expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds,
              "host": host, "golden_checked": expected is not None, **report}
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    units = tracing.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = report["metrics"]
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {workload.name} seed {seed} trace {trace}: "
          f"{len(report['samples'])} repetitions, digests "
          f"{'checked against bench/golden.json' if expected else 'not recorded for this seed'}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units.get(name, tracing.extra_unit(name))}")
    print(f"  {'failed_runs':36s} {report['failed']:9d} of {report['attempted']} runs")
    for name in report["missing"]:
        print(f"  {name:36s}          missing (its entry point never fired in this process)")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print(f"report: {OUT_DIR.name}/{stem}.json")

    result = {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fw = import_fwdist()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else list(WORKLOADS):
        run_workload(WORKLOADS[name], fw, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
