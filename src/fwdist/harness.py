"""Experiment harness: signature-overhead calculator, scenario execution with
CSV/JSON emission, parameter sweeps, and plot-data tables.

CSV schema (one row per event, in emission order):

    sim_time_us,node,event,chunk_id,detail

where event is one of InterestSent, DataRecv, NetRetx, AppRetx, LinkRetx,
TagFail, PhaseChange, InstallComplete, Abort. DataRecv rows are emitted only
for verified, newly stored chunks of a node's own image, so a completing
node's DataRecv count equals its chunk count.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from .scenario import Scenario, ScenarioInvalid, load_scenario, scenario_from_dict
from .sim import run_simulation


class NoPayloadRoom(ValueError):
    pass


class MalformedCsv(ValueError):
    pass


# ---------------------------------------------------------------------------
# chunk-wise signature overhead arithmetic

# With header compression the name is elided from Data packets and the
# structural encoding shrinks; 6 bytes reproduces the reported capacities.
COMPRESSED_STRUCTURAL_BYTES = 6


@dataclass(frozen=True, slots=True)
class OverheadModel:
    mtu: int = 128
    name_bytes: int = 16
    structural_bytes: int = 16
    link_header_bytes: int = 23
    signature_bytes: int = 64
    compression_enabled: bool = False

    def payload_capacity(self) -> int:
        name = 0 if self.compression_enabled else self.name_bytes
        structural = (
            min(self.structural_bytes, COMPRESSED_STRUCTURAL_BYTES)
            if self.compression_enabled
            else self.structural_bytes
        )
        return self.mtu - name - structural - self.link_header_bytes - self.signature_bytes


def overhead_report(model: OverheadModel, firmware_size: int) -> dict:
    """Exact integer accounting of per-chunk signature overhead."""
    capacity = model.payload_capacity()
    if capacity <= 0:
        raise NoPayloadRoom(
            f"headers and signature leave {capacity} bytes for application data"
        )
    if firmware_size <= 0:
        raise ValueError("firmware size must be positive")
    chunk_count = -(-firmware_size // capacity)
    return {
        "payload_capacity": capacity,
        "chunk_count": chunk_count,
        "signature_overhead_bytes": chunk_count * model.signature_bytes,
    }


# ---------------------------------------------------------------------------
# scenario execution

def run_scenario(path: str | Path, seed: int | None = None, out_dir: str | Path | None = None):
    """Execute a scenario file; returns (SimResult, summary dict).

    With ``out_dir`` set, writes metrics.csv and summary.json there.
    """
    scenario = load_scenario(path)
    if seed is not None:
        scenario.seed = seed
    result = run_simulation(scenario)
    summary = result.summary()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.csv", "w") as fh:
            for line in result.csv_lines():
                fh.write(line + "\n")
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result, summary


# ---------------------------------------------------------------------------
# sweeps

SWEEPABLE = ("image_size", "chunk_size", "chunk_count", "duration_s", "seed",
             "poll_period_s", "poll_stagger_s")


def _apply_axis(scenario: Scenario, axis: str, value):
    """Set one axis value, held to the rule ``scenario_from_dict`` applies to the field."""
    integral = axis in ("image_size", "chunk_size", "chunk_count", "seed")
    if integral:
        number = isinstance(value, int) and not isinstance(value, bool)
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    positive = axis in ("image_size", "chunk_size", "chunk_count", "poll_period_s")
    if not number or (axis != "seed" and value < 0) or (positive and value == 0) or (
        axis == "chunk_size" and value >= 2**32
    ):
        raise ScenarioInvalid(axis, f"not a valid sweep value: {value!r}")
    if axis == "chunk_count":
        scenario.image_size = value * scenario.chunk_size
    elif integral:
        setattr(scenario, axis, value)
    else:
        setattr(scenario, axis, float(value))


def sweep(base: Scenario | dict, axis: str, values, seeds) -> dict:
    """Run the cross product of axis values and seeds.

    Returns {"rows": [...], "medians": [...]} where each row is
    (value, seed, completion_time_us, completions, net_retx, app_retx,
    link_retx) and medians aggregate completion time per value.
    """
    if axis not in SWEEPABLE:
        raise ScenarioInvalid("axis", f"not sweepable: {axis!r} (choose from {SWEEPABLE})")
    rows = []
    medians = []
    for value in values:
        completions = []
        for seed in seeds:
            if isinstance(base, dict):
                scenario = scenario_from_dict(base)
            else:
                scenario = replace(base)
            _apply_axis(scenario, axis, value)
            scenario.seed = int(seed)
            result = run_simulation(scenario)
            done = result.completed_nodes()
            completion = result.completion_time_us(done) if done else None
            totals = {"NetRetx": 0, "AppRetx": 0, "LinkRetx": 0}
            for stats in result.node_stats.values():
                totals["NetRetx"] += stats["net_retx"]
                totals["AppRetx"] += stats["app_retx"]
                totals["LinkRetx"] += stats["link_retx"]
            rows.append((value, int(seed), completion, len(done),
                         totals["NetRetx"], totals["AppRetx"], totals["LinkRetx"]))
            completions.append(completion)
        finished = [c for c in completions if c is not None]
        medians.append((value, statistics.median(finished) if finished else None))
    return {"axis": axis, "rows": rows, "medians": medians}


def sweep_csv_lines(table: dict):
    yield "axis_value,seed,completion_time_us,completions,net_retx,app_retx,link_retx"
    for row in table["rows"]:
        yield ",".join("" if v is None else str(v) for v in row)
    yield "axis_value,median_completion_time_us"
    for value, median in table["medians"]:
        yield f"{value}," + ("" if median is None else str(median))


# ---------------------------------------------------------------------------
# plot-data tables

CSV_HEADER = "sim_time_us,node,event,chunk_id,detail"


def _parse_csv(lines) -> list[tuple[int, str, str, int | None, str]]:
    rows = []
    it = iter(lines)
    try:
        header = next(it).strip()
    except StopIteration:
        raise MalformedCsv("empty file") from None
    if header != CSV_HEADER:
        raise MalformedCsv(f"unexpected header {header!r}")
    for lineno, line in enumerate(it, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",", 4)
        if len(parts) != 5:
            raise MalformedCsv(f"line {lineno}: expected 5 fields")
        t, node, event, chunk_id, detail = parts
        try:
            rows.append((int(t), node, event, int(chunk_id) if chunk_id else None, detail))
        except ValueError as exc:
            raise MalformedCsv(f"line {lineno}: {exc}") from exc
    return rows


def load_metrics_csv(path: str | Path):
    with open(path) as fh:
        try:
            return _parse_csv(fh)
        except UnicodeDecodeError as exc:
            raise MalformedCsv(f"not text: {exc}") from exc


def progress_table(rows) -> list[tuple[str, int, int]]:
    """Per-node cumulative chunk count over time: (node, sim_time_us, total)."""
    counts: dict[str, int] = {}
    out = []
    for t, node, event, chunk_id, _ in rows:
        if event != "DataRecv" or chunk_id is None:
            continue
        counts[node] = counts.get(node, 0) + 1
        out.append((node, t, counts[node]))
    return out


def rate_table(rows) -> list[tuple[str, int, int]]:
    """Per-node chunks retrieved per second: (node, second, count)."""
    buckets: dict[tuple[str, int], int] = {}
    order: list[tuple[str, int]] = []
    for t, node, event, chunk_id, _ in rows:
        if event != "DataRecv" or chunk_id is None:
            continue
        key = (node, t // 1_000_000)
        if key not in buckets:
            buckets[key] = 0
            order.append(key)
        buckets[key] += 1
    return [(node, second, buckets[(node, second)]) for node, second in sorted(order)]


def retx_blocks(rows, block_size: int = 100) -> list[tuple[str, str, int, int]]:
    """Chunk-request retransmissions per block of chunk ids.

    Rows: (node, layer, block_start, count) with layer in {"net", "app"};
    every block from 0 through the highest chunk id seen is emitted per node
    and layer, zero-filled.
    """
    if block_size <= 0:
        raise ValueError("block size must be positive")
    max_chunk: dict[str, int] = {}
    counts: dict[tuple[str, str, int], int] = {}
    layer_by_event = {"NetRetx": "net", "AppRetx": "app"}
    for _, node, event, chunk_id, _ in rows:
        if chunk_id is None:
            continue
        if node not in max_chunk or chunk_id > max_chunk[node]:
            max_chunk[node] = chunk_id
        layer = layer_by_event.get(event)
        if layer is None:
            continue
        key = (node, layer, chunk_id // block_size * block_size)
        counts[key] = counts.get(key, 0) + 1
    out = []
    for node in sorted(max_chunk):
        blocks = max_chunk[node] // block_size + 1
        for layer in ("net", "app"):
            for b in range(blocks):
                start = b * block_size
                out.append((node, layer, start, counts.get((node, layer, start), 0)))
    return out


def table_csv_lines(kind: str, table):
    headers = {
        "progress": "node,sim_time_us,cumulative_chunks",
        "rate": "node,second,chunks_per_second",
        "retx": "node,layer,block_start,retransmissions",
    }
    yield headers[kind]
    for row in table:
        yield ",".join(str(v) for v in row)
