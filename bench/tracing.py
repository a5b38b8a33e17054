"""Per-layer tracing of fwdist from outside the program.

``Tracer`` replaces each entry point listed in ``ENTRY_POINTS`` with a
wrapper that records a span: its name, start, end and the span that called
it. A module-level function is replaced in every fwdist module that holds a
reference to it (``fwdist.agent.tag_chunk`` as well as
``fwdist.vendor.tag_chunk``), because a call through a name imported with
``from .vendor import tag_chunk`` would otherwise slip past the wrapper.
Leaving the ``with`` block restores every original.

Spans are aggregated as they close: per span name, its calls, its total
time and its self time (its duration minus the time of the spans it called).
A layer's self time is the sum over its spans. The coarse spans (command
line, harness, scenario parsing, simulation set-up and run, publishing) are
also kept whole, with an id, a parent id and the number of the simulation
they belong to, and are written to the report.

A metric whose entry point does not exist, or whose layer never fired in
this process, is missing rather than 0; ``per_layer`` leaves it out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (layer, fwdist module, function or Class.method)
ENTRY_POINTS = [
    ("cli", "cli", "fwsim_main"),
    ("harness", "harness", "run_scenario"),
    ("harness", "harness", "sweep"),
    ("harness", "harness", "load_metrics_csv"),
    ("harness", "harness", "progress_table"),
    ("harness", "harness", "rate_table"),
    ("harness", "harness", "retx_blocks"),
    ("scenario", "scenario", "load_scenario"),
    ("scenario", "scenario", "scenario_from_dict"),
    ("sim.setup", "sim", "Simulation.__init__"),
    ("sim.engine", "sim", "Simulation.run"),
    ("sim.engine", "sim", "EventQueue.push"),
    ("sim.engine", "sim", "EventQueue.pop"),
    ("sim.medium", "sim", "Simulation.send_packet"),
    ("sim.medium", "sim", "Simulation.transmit"),
    ("sim.medium", "sim", "Simulation._attempt"),  # first attempts and link-retry events
    ("sim.node", "sim", "SimNode.on_frame"),
    ("sim.node", "sim", "SimNode.wake"),
    ("forwarder", "forwarder", "Forwarder.on_interest"),
    ("forwarder", "forwarder", "Forwarder.on_data"),
    ("forwarder", "forwarder", "Forwarder.on_nack"),
    ("forwarder", "forwarder", "Forwarder.on_local_interest"),
    ("forwarder", "forwarder", "Forwarder.tick_retransmissions"),
    ("forwarder", "forwarder", "Forwarder.cancel_local"),
    ("forwarder", "forwarder", "Forwarder.next_deadline"),
    ("forwarder", "forwarder", "ContentStore.lookup"),
    ("forwarder", "forwarder", "ContentStore.insert"),
    ("agent", "agent", "UpdateAgent.due_poll"),
    ("agent", "agent", "UpdateAgent.poll_version"),
    ("agent", "agent", "UpdateAgent.wants_implicit"),
    ("agent", "agent", "UpdateAgent.on_manifest"),
    ("agent", "agent", "UpdateAgent.take_request"),
    ("agent", "agent", "UpdateAgent.on_chunk"),
    ("agent", "agent", "UpdateAgent.divert_wanted"),
    ("agent", "agent", "UpdateAgent.on_timeout"),
    ("agent", "agent", "UpdateAgent.on_nack"),
    ("agent", "agent", "UpdateAgent.handle_deadlines"),
    ("agent", "agent", "UpdateAgent.serve_lookup"),
    ("agent", "agent", "UpdateAgent.deny"),
    ("agent", "agent", "UpdateAgent.next_action_at"),
    ("vendor", "vendor", "tag_chunk"),
    ("vendor", "vendor", "make_chunks"),
    ("vendor", "vendor", "build_manifest"),
    ("vendor", "vendor", "signing_key_from_seed"),
    ("vendor", "vendor", "Repository.publish"),
    ("vendor", "vendor", "Repository.lookup_manifest"),
    ("vendor", "vendor", "Repository.lookup_chunk"),
    ("vendor", "vendor", "Manifest.verify"),
    ("vendor", "vendor", "Manifest.from_bytes"),
    ("vendor", "vendor", "Manifest.to_bytes"),
    ("naming", "naming", "FirmwareName.components"),
    ("naming", "naming", "BaseName.components"),
    ("naming", "naming", "encoded_size"),
    ("packets", "packets", "packet_size"),
    ("packets", "packets", "chunk_id_of"),
]

COARSE_LAYERS = {"cli", "harness", "scenario", "sim.setup"}
COARSE_SPANS = {"sim.Simulation.run", "vendor.make_chunks", "vendor.build_manifest",
                "vendor.Repository.publish"}

# tag_chunk calls are split by the span that made them
TAG_PURPOSE = {
    "agent.UpdateAgent.on_chunk": "vendor.tag_chunk.verify",
    "agent.UpdateAgent.serve_lookup": "vendor.tag_chunk.serve",
    "vendor.make_chunks": "vendor.tag_chunk.publish",
    "vendor.Repository.publish": "vendor.tag_chunk.publish",
}

# forwarder action classes counted in the lists the forwarder returns
ACTION_KEYS = {
    "Aggregate": "forwarder.aggregate",
    "DenyCascading": "forwarder.deny",
    "Retransmit": "forwarder.retransmit",
    "Drop": "forwarder.drop",
}
DROP_REASONS = ("loop", "no-route", "pit-full", "unsolicited", "unsolicited-nack")
ACTION_SPANS = ("forwarder.Forwarder.on_interest", "forwarder.Forwarder.on_data",
                "forwarder.Forwarder.on_nack", "forwarder.Forwarder.on_local_interest",
                "forwarder.Forwarder.tick_retransmissions")

_ABSENT = object()


def _span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Context manager that wraps fwdist's entry points while it is open."""

    def __init__(self):
        modules = {module for _, module, _ in ENTRY_POINTS}
        self.modules = {name: importlib.import_module(f"fwdist.{name}") for name in modules}
        self.layer_of = {_span_name(m, q): layer for layer, m, q in ENTRY_POINTS}
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}  # counters observed by hooks, keyed by metric name
        self.stack: list[list] = []  # open spans: [name, start, child_s]
        self.spans: list[dict] = []  # coarse spans, kept whole
        self._open: list[int] = []
        self.run_id = 0
        self.unpatched: list[str] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- installing -----------------------------------------------------------

    def __enter__(self):
        hooks = self._hooks()
        for layer, module, qualname in ENTRY_POINTS:
            name = _span_name(module, qualname)
            pre, post = hooks.get(name, (None, None))
            self._patch(self.modules[module], qualname, name, layer, pre, post)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, module, qualname: str, name: str, layer: str, pre, post) -> None:
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                self.unpatched.append(name)
                return
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, layer, raw.__func__, pre, post))
            else:
                wrapped = self.wrap(name, layer, raw, pre, post)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
            return
        original = getattr(module, qualname, None)
        if not callable(original):
            self.unpatched.append(name)
            return
        wrapped = self.wrap(name, layer, original, pre, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fwdist" or mod_name.startswith("fwdist.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def wrap(self, name: str, layer: str, fn, pre=None, post=None):
        """Return ``fn`` wrapped in a span; ``pre`` may return replacement (args, kwargs)."""
        stack = self.stack
        clock = time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        coarse = layer in COARSE_LAYERS or name in COARSE_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                replaced = pre(args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            if coarse:
                record = tracer._open_span(name)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if coarse:
                    tracer._close_span(record, frame[1], end)
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_span(self, name: str) -> dict:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, "run": self.run_id}
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    def _close_span(self, record: dict, start: float, end: float) -> None:
        self._open.pop()
        record["start_s"] = start - self._t0
        record["end_s"] = end - self._t0

    # -- hooks that count what the spans alone do not show ----------------------

    def _add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, -1):
            self.counts[key] = value

    def _hooks(self) -> dict:
        counts, stack = self.counts, self.stack
        hooks = {}

        def new_run(args, kwargs):
            self.run_id += 1

        hooks["sim.Simulation.__init__"] = (new_run, None)

        def heap_peak(args, result):
            self._peak("sim.engine.heap_peak", len(args[0]))

        hooks["sim.EventQueue.push"] = (None, heap_peak)

        def stale_wake(args, kwargs):
            if len(args) >= 2:
                wake_at = getattr(args[0], "wake_at", _ABSENT)
                if wake_at is not _ABSENT:
                    self._add("sim.node.wake.stale", int(wake_at is not None and args[1] < wake_at))

        hooks["sim.SimNode.wake"] = (stale_wake, None)

        transmit = vars(getattr(self.modules["sim"], "Simulation", object)).get("transmit")
        params = list(inspect.signature(transmit).parameters) if callable(transmit) else []
        if "on_delivered" in params:
            index = params.index("on_delivered")

            def delivered(callback):
                return self.wrap("sim.medium.delivered", "sim.medium", callback)

            def wrap_delivery(args, kwargs):
                if len(args) > index:
                    return args[:index] + (delivered(args[index]),) + args[index + 1:], kwargs
                if "on_delivered" in kwargs:
                    kwargs["on_delivered"] = delivered(kwargs["on_delivered"])
                return None

            hooks["sim.Simulation.transmit"] = (wrap_delivery, None)

        fwd = self.modules["forwarder"]
        action_keys = {}
        for cls_name, key in ACTION_KEYS.items():
            cls = getattr(fwd, cls_name, None)
            if isinstance(cls, type):
                action_keys[cls] = key
                if key == "forwarder.drop":
                    for reason in DROP_REASONS:
                        counts[f"{key}.{reason}"] = 0
                else:
                    counts[key] = 0

        def forwarder_actions(args, result):
            if isinstance(result, list):
                for action in result:
                    key = action_keys.get(type(action))
                    if key == "forwarder.drop":
                        key = f"{key}.{getattr(action, 'reason', 'unknown')}"
                    if key is not None:
                        counts[key] = counts.get(key, 0) + 1
            pit = getattr(args[0], "pit", None)
            if pit is not None:
                self._peak("forwarder.pit.peak", len(pit))

        for span in ACTION_SPANS:
            hooks[span] = (None, forwarder_actions)

        counts["forwarder.cs.hits"] = 0
        counts["forwarder.cs.evictions"] = 0

        def cs_hit(args, result):
            counts["forwarder.cs.hits"] += result is not None

        def cs_evict(args, result):
            counts["forwarder.cs.evictions"] += result is not None

        hooks["forwarder.ContentStore.lookup"] = (None, cs_hit)
        hooks["forwarder.ContentStore.insert"] = (None, cs_evict)

        counts["agent.serve_lookup.hits"] = 0

        def serve_hit(args, result):
            counts["agent.serve_lookup.hits"] += result is not None

        hooks["agent.UpdateAgent.serve_lookup"] = (None, serve_hit)

        for key in set(TAG_PURPOSE.values()):
            counts[key] = 0

        def tag_purpose(args, kwargs):
            parent = stack[-1][0] if stack else None
            self._add(TAG_PURPOSE.get(parent, "vendor.tag_chunk.other"))

        hooks["vendor.tag_chunk"] = (tag_purpose, None)
        return hooks


# ---------------------------------------------------------------------------
# per-layer metrics


class _View:
    """Read access to one traced repetition; raises KeyError for what is missing."""

    def __init__(self, tracer: Tracer, events: dict[str, int] | None):
        self.t = tracer
        self.events = events
        self.fired_layers = {tracer.layer_of[name] for name, s in tracer.stats.items()
                             if s[0] and name in tracer.layer_of}

    def _require_layer(self, layer: str) -> None:
        if layer not in self.fired_layers:
            raise KeyError(layer)

    def calls(self, *spans: str) -> int:
        total = 0
        for span in spans:
            if span in self.t.unpatched:
                raise KeyError(span)
            self._require_layer(self.t.layer_of[span])
            total += self.t.stats.get(span, [0])[0]
        return total

    def self_s(self, span: str) -> float:
        stats = self.t.stats.get(span)
        if not stats or not stats[0]:
            raise KeyError(span)
        return stats[2]

    def total_s(self, *spans: str) -> float:
        fired = [self.t.stats[s] for s in spans if self.t.stats.get(s, [0])[0]]
        if not fired:
            raise KeyError(spans)
        return sum(s[1] for s in fired)

    def layer_self(self, layer: str) -> float:
        self._require_layer(layer)
        return sum(s[2] for name, s in self.t.stats.items() if self.t.layer_of.get(name) == layer)

    def count(self, key: str, layer: str) -> int:
        self._require_layer(layer)
        return self.t.counts[key]

    def records(self, event: str) -> int:
        if self.events is None:
            raise KeyError(event)
        return self.events.get(event, 0)


def _fwd(key: str):
    return lambda m: m.count(key, "forwarder")


# (metric, unit, how it is computed); every metric listed in BENCHMARK.json per_layer
PER_LAYER = [
    ("sim.engine.self_s", "s", lambda m: m.layer_self("sim.engine")),
    ("sim.engine.events", "count", lambda m: m.calls("sim.EventQueue.pop")),
    ("sim.engine.stale_wake_ratio", "ratio",
     lambda m: m.count("sim.node.wake.stale", "sim.node") / m.calls("sim.SimNode.wake")),
    ("sim.engine.heap_peak", "count", lambda m: m.count("sim.engine.heap_peak", "sim.engine")),
    ("sim.setup.self_s", "s", lambda m: m.layer_self("sim.setup")),
    ("sim.medium.self_s", "s", lambda m: m.layer_self("sim.medium")),
    ("sim.medium.packets", "count", lambda m: m.calls("sim.Simulation.send_packet")),
    ("sim.medium.frames", "count", lambda m: m.calls("sim.Simulation.transmit")),
    ("sim.medium.retries", "count", lambda m: m.records("LinkRetx")),
    ("sim.medium.delivered", "count", lambda m: m.calls("sim.medium.delivered")),
    ("sim.medium.delivery_ratio", "ratio",
     lambda m: m.calls("sim.medium.delivered") / m.calls("sim.Simulation.transmit")),
    ("sim.node.self_s", "s", lambda m: m.layer_self("sim.node")),
    ("sim.node.on_frame.calls", "count", lambda m: m.calls("sim.SimNode.on_frame")),
    ("sim.node.wake.calls", "count", lambda m: m.calls("sim.SimNode.wake")),
    ("forwarder.self_s", "s", lambda m: m.layer_self("forwarder")),
    ("forwarder.on_interest.calls", "count", lambda m: m.calls("forwarder.Forwarder.on_interest")),
    ("forwarder.on_data.calls", "count", lambda m: m.calls("forwarder.Forwarder.on_data")),
    ("forwarder.on_local_interest.calls", "count",
     lambda m: m.calls("forwarder.Forwarder.on_local_interest")),
    ("forwarder.tick_retransmissions.calls", "count",
     lambda m: m.calls("forwarder.Forwarder.tick_retransmissions")),
    ("forwarder.aggregate", "count", _fwd("forwarder.aggregate")),
    *[(f"forwarder.drop.{r}", "count", _fwd(f"forwarder.drop.{r}")) for r in DROP_REASONS],
    ("forwarder.deny", "count", _fwd("forwarder.deny")),
    ("forwarder.cache_insert", "count", lambda m: m.calls("forwarder.ContentStore.insert")),
    ("forwarder.cache_evict", "count", lambda m: m.count("forwarder.cs.evictions", "forwarder")),
    ("forwarder.retransmit", "count", _fwd("forwarder.retransmit")),
    ("forwarder.cs.hit_ratio", "ratio",
     lambda m: m.count("forwarder.cs.hits", "forwarder") / m.calls("forwarder.ContentStore.lookup")),
    ("forwarder.pit.peak", "count", lambda m: m.count("forwarder.pit.peak", "forwarder")),
    ("agent.self_s", "s", lambda m: m.layer_self("agent")),
    ("agent.on_chunk.calls", "count", lambda m: m.calls("agent.UpdateAgent.on_chunk")),
    ("agent.serve_lookup.calls", "count", lambda m: m.calls("agent.UpdateAgent.serve_lookup")),
    ("agent.serve_lookup.hits", "count", lambda m: m.count("agent.serve_lookup.hits", "agent")),
    ("agent.on_manifest.calls", "count", lambda m: m.calls("agent.UpdateAgent.on_manifest")),
    ("agent.tag_fail", "count", lambda m: m.records("TagFail")),
    ("agent.app_retx", "count", lambda m: m.records("AppRetx")),
    ("agent.abort", "count", lambda m: m.records("Abort")),
    ("vendor.self_s", "s", lambda m: m.layer_self("vendor")),
    ("vendor.tag_chunk.verify", "count", lambda m: m.count("vendor.tag_chunk.verify", "vendor")),
    ("vendor.tag_chunk.serve", "count", lambda m: m.count("vendor.tag_chunk.serve", "vendor")),
    ("vendor.tag_chunk.publish", "count", lambda m: m.count("vendor.tag_chunk.publish", "vendor")),
    ("vendor.manifest_verify.calls", "count", lambda m: m.calls("vendor.Manifest.verify")),
    ("vendor.publish_s", "s",
     lambda m: m.total_s("vendor.make_chunks", "vendor.build_manifest", "vendor.Repository.publish")),
    ("naming.components.calls", "count",
     lambda m: m.calls("naming.FirmwareName.components", "naming.BaseName.components")),
    ("naming.encoded_size.calls", "count", lambda m: m.calls("naming.encoded_size")),
    ("packets.packet_size.calls", "count", lambda m: m.calls("packets.packet_size")),
    ("naming.self_s", "s", lambda m: m.layer_self("naming")),
    ("packets.self_s", "s", lambda m: m.layer_self("packets")),
    ("scenario.parse_s", "s", lambda m: m.layer_self("scenario")),
    ("scenario.parse.calls", "count", lambda m: m.calls("scenario.scenario_from_dict")),
]

# Reported in the human-readable lines and the report file only: each of
# these layers is reached by some workloads and not by others.
WORKLOAD_SPECIFIC = [
    ("harness.write_s", "s", lambda m: m.self_s("harness.run_scenario")),
    ("harness.tables_s", "s", lambda m: m.total_s("harness.load_metrics_csv", "harness.progress_table",
                                                  "harness.rate_table", "harness.retx_blocks")),
    ("harness.sweep.self_s", "s", lambda m: m.self_s("harness.sweep")),
    ("cli.self_s", "s", lambda m: m.layer_self("cli")),
]

# computed by run.py around the traced repetitions
PROCESS_METRICS = [("trace.overhead_s", "s"), ("process.cpu_s", "s")]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
PER_LAYER_UNITS.update(PROCESS_METRICS)


def is_time(name: str) -> bool:
    return name.endswith("_s")


def extra_unit(name: str) -> str:
    return "s" if is_time(name) else "count"


def per_layer(tracer: Tracer, events: dict[str, int] | None) -> dict[str, float]:
    """Every per-layer metric that could be measured; missing ones are left out."""
    view = _View(tracer, events)
    metrics = {}
    for name, _, compute in PER_LAYER + WORKLOAD_SPECIFIC:
        try:
            metrics[name] = compute(view)
        except (KeyError, ZeroDivisionError):
            continue
    for key, value in tracer.counts.items():
        if key.startswith("forwarder.drop.") and key not in PER_LAYER_UNITS:
            metrics[key] = value
    if "vendor.tag_chunk.other" in tracer.counts:
        metrics["vendor.tag_chunk.other"] = tracer.counts["vendor.tag_chunk.other"]
    return metrics
