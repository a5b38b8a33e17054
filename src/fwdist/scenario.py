"""Scenario files: experiment configuration schema, defaults, validation.

A scenario is a JSON object. ``SCHEMA`` has one row per accepted key, with
its bounds in the manner of JSON Schema; the type and the default of each
field come from the dataclass that holds it. The rows, generated from the
table:

{fields}

``topology`` is "paper" or {"nodes": [{"id": "gw", "parent": null}, ...]}.
Node IDs are non-empty strings without commas, double quotes or line breaks,
because they are written unquoted into ``metrics.csv``. A block that is
present takes its fields' defaults. ``link.mtu_bytes`` exceeds ``link.link_header_bytes``,
``agent.app_retx_jitter_s`` is at most ``agent.app_retx_base_s``,
``|granularity.offset_s| < granularity.period_s``, an ``outage`` has exactly
one of ``at_s`` and ``after_install``, the edge ends of ``attacker`` and
``outage`` and ``outage.after_install`` are node IDs, and under a
``replay_stale`` attacker ``epoch >= granularity.period_s``, so that the
replayed previous epoch is not negative. No block takes a key
that has no row, a bool is never a number, numbers are finite, an ``int``
field takes integers only and a ``float`` field stores a float. A violation
raises ``ScenarioInvalid`` naming the field.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .naming import EncodingModel, Granularity, MalformedName, _check_identifier
from .topology import Topology, build_paper_topology, TopologyError
from .vendor import TRUNCATION_LENGTHS

STRATEGIES = ("concurrent", "cascading")
ATTACK_MODES = ("tamper_payload", "forge_tag", "replay_stale")
# daily epochs at local midnight, UTC+2; used only when the block is absent
DEFAULT_GRANULARITY = Granularity(offset=-7200)
# Opening a path the user named fails with these for bad input, not for a fault.
UNREADABLE = (IsADirectoryError, NotADirectoryError, PermissionError)


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
    rate: float = 1.0


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

    def device_class_of(self, node_id: str) -> str:
        """The class of device ``node_id``: its own class in a multiparty scenario."""
        if self.multiparty:
            return f"{self.device_class}-{node_id}"
        return self.device_class


# ---------------------------------------------------------------------------
# the schema: one row per accepted key, "block.key" inside a block. Keywords:
# minimum, exclusiveMinimum, maximum, exclusiveMaximum and enum as in JSON
# Schema; "format": "name-component" (a component of every firmware name, held
# to the rule of ``naming``); "nullable" (null stands for the default) and
# "attr" (the dataclass field, where it is not named as the key).

NON_NEGATIVE = {"minimum": 0}
POSITIVE = {"exclusiveMinimum": 0}
PROBABILITY = {"minimum": 0, "maximum": 1}
NAME_COMPONENT = {"format": "name-component"}
NULLABLE = {"nullable": True}


def _parameter_rows(block: str, cls, bounds: dict, **exceptions: dict) -> dict:
    """The rows of a parameter block: one per field of ``cls``, each with ``bounds`` unless
    ``exceptions`` names the field; null stands for the whole block's default."""
    return {block: NULLABLE, **{f"{block}.{name}": exceptions.get(name, bounds)
                                for name in cls.__dataclass_fields__}}

SCHEMA: dict[str, dict] = {
    "strategy": {"enum": STRATEGIES},
    "image_size": POSITIVE,
    "topology": {},
    "chunk_size": {"exclusiveMinimum": 0, "exclusiveMaximum": 2**32},  # manifest: 4 bytes
    "seed": {},
    # int(duration_s * 10**6) < 2**63: every record time fits a signed 64-bit column
    "duration_s": {"minimum": 0, "exclusiveMaximum": 2**63 // 1_000_000},
    "deployment": NAME_COMPONENT,
    "vendor": NAME_COMPONENT,
    "device_class": NAME_COMPONENT,
    "epoch": {"exclusiveMinimum": 0, "exclusiveMaximum": 2**64},  # manifest: 8 bytes
    "granularity": {},
    "granularity.period_s": {"attr": "period", **POSITIVE},
    "granularity.offset_s": {"attr": "offset"},
    "multiparty": {},
    "trunc_len": {"enum": TRUNCATION_LENGTHS},
    "poll_period_s": POSITIVE,
    "poll_stagger_s": NON_NEGATIVE,
    "nacks_enabled": {},
    **_parameter_rows("loss", LossParams, PROBABILITY),
    **_parameter_rows("link", LinkParams, NON_NEGATIVE, bandwidth_bps=POSITIVE),
    **_parameter_rows("node", NodeParams, NON_NEGATIVE, pit_capacity=POSITIVE),
    **_parameter_rows("agent", AgentParams, NON_NEGATIVE),
    "attacker": NULLABLE,
    "attacker.edge": {},
    "attacker.mode": {"enum": ATTACK_MODES},
    "attacker.rate": PROBABILITY,
    "outage": NULLABLE,
    "outage.edge": {},
    "outage.at_s": {**NULLABLE, **NON_NEGATIVE},
    "outage.after_install": NULLABLE,
    **_parameter_rows("name_encoding", EncodingModel, NON_NEGATIVE),
}

_BLOCK_TYPES = {cls.__name__: cls for cls in (
    Granularity, LossParams, LinkParams, NodeParams, AgentParams, AttackerSpec, OutageSpec,
    EncodingModel)}
_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float)}
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "maximum": (operator.le, "<="), "exclusiveMaximum": (operator.lt, "<")}


def _layout() -> dict[str, tuple[type, dict]]:
    """Block path -> (dataclass, {key: (dataclass field, type name, row)}), from ``SCHEMA``."""
    layout = {"": (Scenario, {})}
    for path, row in SCHEMA.items():
        block, _, key = path.rpartition(".")
        cls, columns = layout[block]
        spec = cls.__dataclass_fields__[row.get("attr", key)]
        kind = spec.type.removesuffix(" | None")
        if kind in _BLOCK_TYPES:
            layout[path] = (_BLOCK_TYPES[kind], {})
        columns[key] = (spec, kind, row)
    return layout


_LAYOUT = _layout()


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise ScenarioInvalid(fieldname, message)


def _block(path: str, raw):
    """The dataclass of block ``path`` built from the JSON object ``raw``, held to its rows."""
    cls, columns = _LAYOUT[path]
    _require(isinstance(raw, dict), path or "scenario", "expected an object")
    prefix = f"{path}." if path else ""
    for key in raw:
        _require(key in columns, f"{prefix}{key}", "unknown field")
    values = {}
    for key, (spec, kind, row) in columns.items():
        value = raw.get(key, MISSING)
        if value is MISSING or (value is None and "nullable" in row):
            _require(spec.default is not MISSING or spec.default_factory is not MISSING,
                     prefix + key, "required")
            value = spec.default if spec.default is not MISSING else spec.default_factory()
        else:
            value = _value(prefix + key, kind, row, value)
        values[spec.name] = value
    _cross_field(path, values)
    return cls(**values)


def _value(name: str, kind: str, row: dict, value):
    """``value`` held to the type ``kind`` and the bounds of ``row``; what the field stores."""
    if kind in _BLOCK_TYPES:
        return _block(name, value)
    if kind == "Topology":
        return _topology(value)
    if kind == "tuple[str, str]":
        _require(isinstance(value, list) and len(value) == 2 and all(isinstance(e, str) for e in value),
                 name, f"expected [a, b] of two node ids, got {value!r}")
        return tuple(value)
    _require(isinstance(value, _TYPES[kind]) and (kind == "bool" or not isinstance(value, bool)),
             name, f"expected {kind}, got {value!r}")
    if kind == "float":
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        _require(math.isfinite(value), name, f"must be finite, got {value!r}")
    for keyword, limit in row.items():
        if keyword == "enum":
            _require(value in limit, name, f"must be one of {limit}, got {value!r}")
        elif keyword == "format":
            try:
                _check_identifier(value, name)
            except MalformedName as exc:
                raise ScenarioInvalid(name, str(exc)) from None
        elif keyword in _BOUNDS:
            test, sign = _BOUNDS[keyword]
            _require(test(value, limit), name, f"must be {sign} {limit}, got {value!r}")
    return value


def _cross_field(path: str, v: dict) -> None:
    """The rules between fields of one block, checked before the block is built."""
    if path == "link":
        _require(v["mtu_bytes"] > v["link_header_bytes"], "link.mtu_bytes",
                 "must exceed the link header size")
    elif path == "agent":
        _require(v["app_retx_jitter_s"] <= v["app_retx_base_s"], "agent.app_retx_jitter_s",
                 "must not exceed agent.app_retx_base_s: a retry delay is never negative")
    elif path == "granularity":
        _require(abs(v["offset"]) < v["period"], "granularity.offset_s",
                 "must satisfy |offset_s| < period_s")
    elif path == "outage":
        _require((v["at_s"] is None) != (v["after_install"] is None), "outage",
                 "exactly one of at_s / after_install required")


# Node IDs are written unquoted into the node column of metrics.csv.
NODE_ID_FORBIDDEN = (",", '"', "\n", "\r")


def _topology(raw) -> Topology:
    if raw == "paper":
        return build_paper_topology()
    _require(isinstance(raw, dict) and isinstance(raw.get("nodes"), list), "topology",
             f"'paper' or a node list, got {raw!r}")
    parents: dict[str, str | None] = {}
    for i, item in enumerate(raw["nodes"]):
        fieldname = f"topology.nodes[{i}]"
        _require(isinstance(item, dict), fieldname, "expected an object")
        node_id = item.get("id")
        _require(isinstance(node_id, str) and node_id != "", f"{fieldname}.id",
                 f"must be a non-empty string, got {node_id!r}")
        _require(not any(c in node_id for c in NODE_ID_FORBIDDEN), f"{fieldname}.id",
                 f"must not contain a comma, a double quote or a line break: {node_id!r}")
        # a lone surrogate, which JSON escapes can carry, is the one code point UTF-8 cannot hold
        _require(not any("\ud800" <= c <= "\udfff" for c in node_id), f"{fieldname}.id",
                 f"must be valid Unicode text: {node_id!r}")
        _require(node_id not in parents, f"{fieldname}.id", f"duplicate node id {node_id!r}")
        parent = item.get("parent")
        _require(parent is None or isinstance(parent, str), f"{fieldname}.parent",
                 f"must be a node id or null, got {parent!r}")
        parents[node_id] = parent
    try:
        return Topology(parents)
    except TopologyError as exc:
        raise ScenarioInvalid("topology", str(exc)) from exc


def scenario_from_dict(raw: dict) -> Scenario:
    scenario = _block("", raw)
    names = set(scenario.topology.nodes)
    for fieldname in ("attacker", "outage"):
        spec = getattr(scenario, fieldname)
        if spec is not None:
            _require(set(spec.edge) <= names, f"{fieldname}.edge", "edge endpoints must be topology nodes")
    if scenario.outage is not None and scenario.outage.after_install is not None:
        _require(scenario.outage.after_install in names, "outage.after_install", "unknown node")
    if scenario.attacker is not None and scenario.attacker.mode == "replay_stale":
        _require(scenario.epoch >= scenario.granularity.period, "epoch",
                 f"must be at least granularity.period_s ({scenario.granularity.period}) under a "
                 f"replay_stale attacker, which replays the previous epoch; got {scenario.epoch}")
    topology = scenario.topology
    for i, node_id in enumerate(topology.nodes):
        if scenario.multiparty and node_id != topology.root:
            try:  # a device's class is a component of every firmware name it fetches
                _check_identifier(scenario.device_class_of(node_id), "its device class")
            except MalformedName as exc:
                raise ScenarioInvalid(f"topology.nodes[{i}].id", str(exc)) from None
    return scenario


def read_scenario(path: str | Path) -> dict:
    """The JSON value of a scenario file, not yet validated; a file that cannot be read as
    JSON text raises ``ScenarioInvalid("file")``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))  # JSON is UTF-8: RFC 8259, section 8.1
    except UNREADABLE as exc:
        raise ScenarioInvalid("file", f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioInvalid("file", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not text, or an over-long integer literal
        raise ScenarioInvalid("file", str(exc)) from exc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_scenario(path))


def _field_list() -> str:
    """One line per row of ``SCHEMA``: its path, type, bounds and default."""
    lines = []
    for path, row in SCHEMA.items():
        block, _, key = path.rpartition(".")
        spec, kind, _ = _LAYOUT[block][1][key]
        text = f"    {path:<33}{kind}"
        text += "".join(f", {_BOUNDS[k][1]} {v}" for k, v in row.items() if k in _BOUNDS)
        text += f", one of {row['enum']}" if "enum" in row else ""
        text += f", format {row['format']}" if "format" in row else ""
        if spec.default_factory is not MISSING:
            text += f"; default {spec.default_factory.__name__}()"
        elif spec.default is MISSING:
            text += "; required"
        elif spec.default is None or kind not in _BLOCK_TYPES:
            text += f"; default {spec.default!r}"
        elif spec.default != _BLOCK_TYPES[kind]():
            text += f"; default when absent {spec.default!r}"
        lines.append(text + ("; null means the default" if "nullable" in row else ""))
    return "\n".join(lines)


__doc__ = (__doc__ or "").replace("{fields}", _field_list())
