"""Scenario files: experiment configuration schema, defaults, validation.

A scenario is JSON with the following fields (all optional unless noted):

    topology        "paper" or {"nodes": [{"id": "gw", "parent": null}, ...]}
    strategy        "concurrent" | "cascading" (required)
    image_size      firmware size in bytes (required)
    chunk_size      chunk payload size in bytes (default 32)
    seed            RNG seed (default 1)
    duration_s      simulated cutoff in seconds (default 1800)
    deployment / vendor / device_class
                    name components (defaults "oilrig"/"acme"/"valve")
    epoch           published firmware epoch (default 1632261600)
    granularity     {"period_s": 86400, "offset_s": -7200} when the block is
                    absent (daily, local midnight at UTC+2); inside a block
                    that is present, period_s defaults to 86400 and
                    offset_s to 0
    multiparty      if true, every device gets its own device class and image
    trunc_len       HMAC tag truncation: 8, 16, or 32 (default 8)
    poll_period_s   manifest polling period (default 3600)
    poll_stagger_s  initial poll spread across devices (default 5.0)
    nacks_enabled   repository answers unknown epochs with Nacks (default false)
    loss            {"per_transmission": 0.1, "collision": 0.6}
    link            {"bandwidth_bps": 250000, "propagation_us": 0,
                     "base_slot_us": 1000, "retries": 3, "mtu_bytes": 128,
                     "link_header_bytes": 23}
    node            {"cs_capacity": 64, "pit_capacity": 16, "seen_capacity": 128,
                     "proc_delay_us": 1000, "turnaround_us": 2000,
                     "flash_write_us": 0, "verify_delay_us": 2000,
                     "install_delay_us": 2000}
    agent           {"app_retx_base_s": 10.0, "app_retx_jitter_s": 5.0,
                     "manifest_retries": 3, "digest_retries": 1}
    attacker        {"edge": ["n6", "n7"], "mode": "tamper_payload" |
                     "forge_tag" | "replay_stale", "rate": 1.0}
    outage          {"edge": ["gw", "n1"], "at_s": 120.0} or
                    {"edge": ["gw", "n1"], "after_install": "n1"}
    name_encoding   {"component_overhead": 2, "name_overhead": 2}

Every field of the ``loss``, ``link``, ``node``, ``agent`` and
``name_encoding`` blocks is a finite, non-negative number; fields with an
integer default take integers only. Loss probabilities are at most 1,
``link.bandwidth_bps`` and ``node.pit_capacity`` are positive,
``link.mtu_bytes`` exceeds ``link.link_header_bytes``, and
``agent.app_retx_jitter_s`` is at most ``agent.app_retx_base_s``. Node IDs
are non-empty strings without commas, double quotes or line breaks, because
they are written unquoted into ``metrics.csv``. Top-level numbers are finite;
``epoch`` and ``chunk_size`` fit the manifest's 8- and 4-byte fields.
``granularity.period_s`` and ``offset_s`` are integers with
``|offset_s| < period_s``. The edge ends of ``attacker`` and ``outage`` and
``outage.after_install`` are node IDs; ``outage.at_s`` is a finite,
non-negative number and ``attacker.rate`` a number in [0, 1]. No block takes
a field not listed here, and a bool is never a number. A violation raises
``ScenarioInvalid`` naming the field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .naming import EncodingModel, Granularity
from .topology import Topology, build_paper_topology, from_node_list, TopologyError

STRATEGIES = ("concurrent", "cascading")
ATTACK_MODES = ("tamper_payload", "forge_tag", "replay_stale")
# daily epochs at local midnight, UTC+2; used only when the block is absent
DEFAULT_GRANULARITY = Granularity(86400, -7200)


class ScenarioInvalid(ValueError):
    """Scenario validation failure; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


@dataclass(frozen=True, slots=True)
class LossParams:
    per_transmission: float = 0.10
    collision: float = 0.60


@dataclass(frozen=True, slots=True)
class LinkParams:
    bandwidth_bps: int = 250_000
    propagation_us: int = 0
    base_slot_us: int = 1000
    retries: int = 3
    mtu_bytes: int = 128
    link_header_bytes: int = 23


@dataclass(frozen=True, slots=True)
class NodeParams:
    cs_capacity: int = 64
    pit_capacity: int = 16
    seen_capacity: int = 128
    proc_delay_us: int = 1000
    turnaround_us: int = 2000
    flash_write_us: int = 0
    verify_delay_us: int = 2000
    install_delay_us: int = 2000


@dataclass(frozen=True, slots=True)
class AgentParams:
    app_retx_base_s: float = 10.0
    app_retx_jitter_s: float = 5.0
    manifest_retries: int = 3
    digest_retries: int = 1


@dataclass(frozen=True, slots=True)
class AttackerSpec:
    edge: tuple[str, str]
    mode: str
    rate: float


@dataclass(frozen=True, slots=True)
class OutageSpec:
    edge: tuple[str, str]
    at_s: float | None = None
    after_install: str | None = None


@dataclass(slots=True)
class Scenario:
    strategy: str
    image_size: int
    topology: Topology = field(default_factory=build_paper_topology)
    chunk_size: int = 32
    seed: int = 1
    duration_s: float = 1800.0
    deployment: str = "oilrig"
    vendor: str = "acme"
    device_class: str = "valve"
    epoch: int = 1632261600
    granularity: Granularity = DEFAULT_GRANULARITY
    multiparty: bool = False
    trunc_len: int = 8
    poll_period_s: float = 3600.0
    poll_stagger_s: float = 5.0
    nacks_enabled: bool = False
    loss: LossParams = LossParams()
    link: LinkParams = LinkParams()
    node: NodeParams = NodeParams()
    agent: AgentParams = AgentParams()
    attacker: AttackerSpec | None = None
    outage: OutageSpec | None = None
    name_encoding: EncodingModel = EncodingModel()

    def chunk_count(self) -> int:
        return -(-self.image_size // self.chunk_size)

    def duration_us(self) -> int:
        return int(self.duration_s * 1_000_000)


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise ScenarioInvalid(fieldname, message)


def _take(raw: dict, key: str, types, default, fieldname: str | None = None):
    """``raw[key]`` checked against ``types``; bool and numbers never stand in for each other."""
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    _require(isinstance(value, types) and (types is bool or not isinstance(value, bool)),
             fieldname or key, f"expected {types}, got {value!r}")
    _require(not isinstance(value, float) or math.isfinite(value), fieldname or key,
             f"must be finite, got {value!r}")
    return value


def _known(block: dict, names, fieldname: str) -> None:
    """Reject a key of ``block`` that is not one of ``names``."""
    for key in block:
        _require(key in names, f"{fieldname}.{key}" if fieldname else key, "unknown field")


def _edge(block: dict, fieldname: str) -> tuple[str, str]:
    edge = block.get("edge")
    _require(isinstance(edge, list) and len(edge) == 2 and all(isinstance(e, str) for e in edge),
             fieldname, f"expected [a, b] of two node ids, got {edge!r}")
    return edge[0], edge[1]


def _sub(raw: dict, key: str, cls, fieldname: str):
    """Build a parameter block whose every field is a finite, non-negative number.

    A field declared ``int`` takes integers only; one declared ``float`` takes
    any number. A bool is never a number here.
    """
    block = raw.get(key)
    if block is None:
        return cls()
    _require(isinstance(block, dict), fieldname, "expected an object")
    fields = cls.__dataclass_fields__
    for k, value in block.items():
        name = f"{fieldname}.{k}"
        _require(k in fields, name, "unknown field")
        integral = fields[k].type == "int"
        _require(isinstance(value, int if integral else (int, float)) and not isinstance(value, bool),
                 name, f"expected {'an integer' if integral else 'a number'}, got {value!r}")
        _require(value >= 0 and (isinstance(value, int) or math.isfinite(value)),
                 name, f"must be finite and non-negative, got {value!r}")
    return cls(**block)


# Node IDs are written unquoted into the node column of metrics.csv.
NODE_ID_FORBIDDEN = (",", '"', "\n", "\r")


def _topology_from_list(nodes: list) -> Topology:
    for i, item in enumerate(nodes):
        fieldname = f"topology.nodes[{i}]"
        _require(isinstance(item, dict), fieldname, "expected an object")
        node_id = item.get("id")
        _require(isinstance(node_id, str) and node_id != "", f"{fieldname}.id",
                 f"must be a non-empty string, got {node_id!r}")
        _require(not any(c in node_id for c in NODE_ID_FORBIDDEN), f"{fieldname}.id",
                 f"must not contain a comma, a double quote or a line break: {node_id!r}")
        _require(_utf8(node_id), f"{fieldname}.id", f"must be valid Unicode text: {node_id!r}")
        parent = item.get("parent")
        _require(parent is None or isinstance(parent, str), f"{fieldname}.parent",
                 f"must be a node id or null, got {parent!r}")
    try:
        return from_node_list(nodes)
    except TopologyError as exc:
        raise ScenarioInvalid("topology", str(exc)) from exc


def _utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # lone surrogates, which JSON escapes can carry
        return False
    return True


def scenario_from_dict(raw: dict) -> Scenario:
    _require(isinstance(raw, dict), "scenario", "top level must be an object")
    _known(raw, (
        "topology", "strategy", "image_size", "chunk_size", "seed", "duration_s",
        "deployment", "vendor", "device_class", "epoch", "granularity", "multiparty",
        "trunc_len", "poll_period_s", "poll_stagger_s", "nacks_enabled", "loss",
        "link", "node", "agent", "attacker", "outage", "name_encoding",
    ), "")

    strategy = raw.get("strategy")
    _require(strategy in STRATEGIES, "strategy", f"must be one of {STRATEGIES}, got {strategy!r}")
    image_size = raw.get("image_size")
    _require(isinstance(image_size, int) and image_size > 0, "image_size", "must be a positive integer")

    chunk_size = _take(raw, "chunk_size", int, 32)
    _require(0 < chunk_size < 2**32, "chunk_size", "must be positive and below 2**32")
    seed = _take(raw, "seed", int, 1)
    duration_s = _take(raw, "duration_s", (int, float), 1800.0)
    _require(duration_s >= 0, "duration_s", "must be non-negative")
    epoch = _take(raw, "epoch", int, 1632261600)
    _require(0 < epoch < 2**64, "epoch", "must be positive and below 2**64")
    trunc_len = _take(raw, "trunc_len", int, 8)
    _require(trunc_len in (8, 16, 32), "trunc_len", "must be 8, 16, or 32")

    topo_raw = raw.get("topology", "paper")
    if topo_raw == "paper":
        topology = build_paper_topology()
    elif isinstance(topo_raw, dict) and isinstance(topo_raw.get("nodes"), list):
        topology = _topology_from_list(topo_raw["nodes"])
    else:
        raise ScenarioInvalid("topology", f"'paper' or a node list, got {topo_raw!r}")

    if "granularity" in raw:
        gran_raw = raw["granularity"]
        _require(isinstance(gran_raw, dict), "granularity", "expected an object")
        _known(gran_raw, ("period_s", "offset_s"), "granularity")
        period = _take(gran_raw, "period_s", int, 86400, "granularity.period_s")
        _require(period > 0, "granularity.period_s", "must be positive")
        offset = _take(gran_raw, "offset_s", int, 0, "granularity.offset_s")
        _require(abs(offset) < period, "granularity.offset_s", "must satisfy |offset_s| < period_s")
        granularity = Granularity(period, offset)
    else:
        granularity = DEFAULT_GRANULARITY

    poll_period_s = _take(raw, "poll_period_s", (int, float), 3600.0)
    _require(poll_period_s > 0, "poll_period_s", "must be positive")
    poll_stagger_s = _take(raw, "poll_stagger_s", (int, float), 5.0)
    _require(poll_stagger_s >= 0, "poll_stagger_s", "must be non-negative")

    loss = _sub(raw, "loss", LossParams, "loss")
    _require(0 <= loss.per_transmission < 1 or loss.per_transmission == 1.0,
             "loss.per_transmission", "must lie in [0, 1]")
    _require(0 <= loss.collision <= 1, "loss.collision", "must lie in [0, 1]")
    link = _sub(raw, "link", LinkParams, "link")
    _require(link.bandwidth_bps > 0, "link.bandwidth_bps", "must be positive")
    _require(link.mtu_bytes > link.link_header_bytes, "link.mtu_bytes",
             "must exceed the link header size")
    node = _sub(raw, "node", NodeParams, "node")
    _require(node.pit_capacity > 0, "node.pit_capacity", "must be positive")
    agent = _sub(raw, "agent", AgentParams, "agent")
    _require(agent.app_retx_jitter_s <= agent.app_retx_base_s, "agent.app_retx_jitter_s",
             "must not exceed agent.app_retx_base_s: a retry delay is never negative")

    attacker = None
    if raw.get("attacker") is not None:
        blk = raw["attacker"]
        _require(isinstance(blk, dict), "attacker", "expected an object")
        _known(blk, ("edge", "mode", "rate"), "attacker")
        edge = _edge(blk, "attacker.edge")
        mode = blk.get("mode")
        _require(mode in ATTACK_MODES, "attacker.mode", f"must be one of {ATTACK_MODES}")
        rate = _take(blk, "rate", (int, float), 1.0, "attacker.rate")
        _require(0 <= rate <= 1, "attacker.rate", "must lie in [0, 1]")
        attacker = AttackerSpec(edge, mode, float(rate))

    outage = None
    if raw.get("outage") is not None:
        blk = raw["outage"]
        _require(isinstance(blk, dict), "outage", "expected an object")
        _known(blk, ("edge", "at_s", "after_install"), "outage")
        edge = _edge(blk, "outage.edge")
        at_s = _take(blk, "at_s", (int, float), None, "outage.at_s")
        _require(at_s is None or at_s >= 0, "outage.at_s", f"must be non-negative, got {at_s!r}")
        after = _take(blk, "after_install", str, None, "outage.after_install")
        _require((at_s is None) != (after is None), "outage",
                 "exactly one of at_s / after_install required")
        outage = OutageSpec(edge, at_s, after)

    encoding = _sub(raw, "name_encoding", EncodingModel, "name_encoding")

    scenario = Scenario(
        strategy=strategy,
        image_size=image_size,
        topology=topology,
        chunk_size=chunk_size,
        seed=seed,
        duration_s=float(duration_s),
        deployment=_take(raw, "deployment", str, "oilrig"),
        vendor=_take(raw, "vendor", str, "acme"),
        device_class=_take(raw, "device_class", str, "valve"),
        epoch=epoch,
        granularity=granularity,
        multiparty=_take(raw, "multiparty", bool, False),
        trunc_len=trunc_len,
        poll_period_s=float(poll_period_s),
        poll_stagger_s=float(poll_stagger_s),
        nacks_enabled=_take(raw, "nacks_enabled", bool, False),
        loss=loss,
        link=link,
        node=node,
        agent=agent,
        attacker=attacker,
        outage=outage,
        name_encoding=encoding,
    )

    names = set(scenario.topology.nodes)
    if attacker is not None:
        _require(attacker.edge[0] in names and attacker.edge[1] in names,
                 "attacker.edge", "edge endpoints must be topology nodes")
    if outage is not None:
        _require(outage.edge[0] in names and outage.edge[1] in names,
                 "outage.edge", "edge endpoints must be topology nodes")
        if outage.after_install is not None:
            _require(outage.after_install in names, "outage.after_install", "unknown node")
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioInvalid("file", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not text, or an over-long integer literal
        raise ScenarioInvalid("file", str(exc)) from exc
    return scenario_from_dict(raw)
