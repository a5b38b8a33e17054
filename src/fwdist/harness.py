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
import statistics
from dataclasses import dataclass
from pathlib import Path

from .scenario import UNREADABLE, ScenarioInvalid, load_scenario, scenario_from_dict
from .sim import CSV_HEADER, run_simulation


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

RUN_OUTPUTS = ("metrics.csv", "summary.json")  # the files run_scenario writes into out_dir


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
        metrics, summary_json = RUN_OUTPUTS
        with open(out / metrics, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in result.csv_lines())
        with open(out / summary_json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result, summary


# ---------------------------------------------------------------------------
# sweeps

SWEEPABLE = ("image_size", "chunk_size", "chunk_count", "duration_s", "seed",
             "poll_period_s", "poll_stagger_s")


def sweep(base: dict, axis: str, values, seeds=None) -> dict:
    """Run every axis value at every seed; on the ``seed`` axis, each value once as its seed.

    ``base`` is a scenario as a JSON object. Each run parses a copy of it with
    the axis field and the seed set, so a value is accepted exactly when
    ``scenario_from_dict`` accepts it for that field; ``chunk_count`` sets
    ``image_size`` to value × chunk_size. A rejected value raises
    ``ScenarioInvalid`` naming the axis. ``seeds`` is required for every axis
    but ``seed``, and refused for it; an empty ``values`` or ``seeds`` is refused.

    Returns {"rows": [...], "medians": [...]} where each row is
    (value, seed, completion_time_us, completions, net_retx, app_retx,
    link_retx) and medians aggregate completion time per value.
    """
    if axis not in SWEEPABLE:
        raise ScenarioInvalid("axis", f"not sweepable: {axis!r} (choose from {SWEEPABLE})")
    if (seeds is None) != (axis == "seed"):
        raise ScenarioInvalid("seeds", "required for every axis but seed, whose values are the seeds")
    for name, items in (("values", values), ("seeds", seeds)):
        if items is not None and not items:
            raise ScenarioInvalid(name, "the list is empty: no run would stand behind the table")
    chunk_size = scenario_from_dict(base).chunk_size  # and a fault of the base names its field
    field = "image_size" if axis == "chunk_count" else axis
    rows = []
    medians = []
    for value in values:
        completions = []
        for seed in [value] if seeds is None else seeds:
            raw = dict(base, seed=seed)
            raw[field] = value * chunk_size if axis == "chunk_count" and type(value) is int else value
            try:
                scenario = scenario_from_dict(raw)
            except ScenarioInvalid as exc:
                if exc.fieldname != field:
                    raise
                raise ScenarioInvalid(axis, f"not a valid sweep value: {value!r} ({exc})") from exc
            result = run_simulation(scenario)
            done = result.completed_nodes()
            completion = result.completion_time_us(done)
            totals = [sum(stats[key] for stats in result.node_stats.values())
                      for key in ("net_retx", "app_retx", "link_retx")]
            rows.append((value, scenario.seed, completion, len(done), *totals))
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


def iter_csv_rows(lines):
    """Yield each row of metrics.csv ``lines`` as (sim_time_us, node, event, chunk_id, detail).

    Rows are yielded as they are parsed; a malformed line raises
    ``MalformedCsv`` when it is reached, as does text that does not decode.
    """
    try:
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
                row = (int(t), node, event, int(chunk_id) if chunk_id else None, detail)
            except ValueError as exc:
                raise MalformedCsv(f"line {lineno}: {exc}") from exc
            yield row
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"not text: {exc}") from exc


def open_metrics_csv(path: str | Path):
    """Open a metrics.csv for ``iter_csv_rows``; an unreadable path is ``MalformedCsv``."""
    try:
        return open(path, encoding="utf-8")
    except UNREADABLE as exc:
        raise MalformedCsv(f"cannot read {path}: {exc.strerror}") from exc


def progress_table(rows):
    """Per-node cumulative chunk count over time: yields (node, sim_time_us, total) per chunk."""
    counts: dict[str, int] = {}
    for t, node, event, chunk_id, _ in rows:
        if event != "DataRecv" or chunk_id is None:
            continue
        counts[node] = total = counts.get(node, 0) + 1
        yield node, t, total


def rate_table(rows) -> list[tuple[str, int, int]]:
    """Per-node chunks retrieved per second: (node, second, count)."""
    buckets: dict[tuple[str, int], int] = {}
    for t, node, event, chunk_id, _ in rows:
        if event == "DataRecv" and chunk_id is not None:
            key = (node, t // 1_000_000)
            buckets[key] = buckets.get(key, 0) + 1
    return [(node, second, count) for (node, second), count in sorted(buckets.items())]


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
        max_chunk[node] = max(chunk_id, max_chunk.get(node, chunk_id))
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
