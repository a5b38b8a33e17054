"""Seeded discrete-event simulator: a producer gateway and a DODAG of
forwarder+agent devices over lossy shared-medium links with link-layer ARQ,
optional attacker and uplink outage.

Determinism contract: simulated time is integer microseconds, the event queue
breaks ties by insertion sequence, and every stochastic draw comes from one
scenario-seeded generator consumed in event order, so equal (scenario, seed)
pairs replay bit-identically (including across processes).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import or_, rshift

from .agent import UpdateAgent
from .forwarder import (
    Aggregate,
    DeliverLocal,
    DivertToBuffer,
    Drop,
    Forward,
    Forwarder,
    Retransmit,
    Timeout,
    UPSTREAM,
)
from .naming import CHUNK, MANIFEST, BaseName
from .packets import Data, HmacTag, Interest, Nack, Packet, packet_size
from .scenario import Scenario, ScenarioInvalid
from .vendor import (
    FirmwareImage,
    Repository,
    build_manifest,
    make_chunks,
    signing_key_from_seed,
)


# Record details, built once and not per frame or per Interest.
_LOG_KIND = {cls: cls.__name__.lower() for cls in (Interest, Data, Nack)}
_AGGREGATED = {kind: kind + ";aggregated" for kind in (MANIFEST, CHUNK)}
_CHUNK_MASK = (1 << 32) - 1
CSV_HEADER = "sim_time_us,node,event,chunk_id,detail"  # the first line of metrics.csv


class EventLog:
    """The event records of one run, kept in two signed 64-bit columns.

    A record is ``(sim_time_us, node, event, chunk_id, detail)``. Its time
    goes into one ``array('q')``; its ``(node, event, detail)`` is interned
    as a key number, and the other column holds ``key << 32 | chunk_id + 1``,
    with 0 in the low half for no chunk. Times are below 2**63 because
    ``scenario.SCHEMA`` bounds ``duration_s``, and chunk ids below 2**32 - 1
    because a manifest's ``chunk_count`` is four bytes. Iteration yields the
    records as tuples, in the order they were appended.
    """

    __slots__ = ("_times", "_codes", "_keys", "_code_of")

    def __init__(self):
        self._times = array("q")
        self._codes = array("q")
        self._keys: list[tuple[str, str, str]] = []  # key number -> (node, event, detail)
        self._code_of: dict[str, dict[str, dict[str, int]]] = {}  # node -> event -> detail -> key << 32

    def append(self, at: int, node: str, event: str, chunk_id: int | None, detail: str) -> None:
        try:
            code = self._code_of[node][event][detail]
        except KeyError:
            code = len(self._keys) << 32
            self._code_of.setdefault(node, {}).setdefault(event, {})[detail] = code
            self._keys.append((node, event, detail))
        self._times.append(at)
        self._codes.append(code if chunk_id is None else code | chunk_id + 1)

    def __len__(self) -> int:
        return len(self._times)

    def __eq__(self, other) -> bool:
        # keys are numbered in order of first use, so equal records give equal columns
        if not isinstance(other, EventLog):
            return NotImplemented
        return self._times == other._times and self._codes == other._codes and self._keys == other._keys

    def __iter__(self):
        keys = self._keys
        for at, code in zip(self._times, self._codes):
            node, event, detail = keys[code >> 32]
            cid = code & _CHUNK_MASK
            yield at, node, event, cid - 1 if cid else None, detail

    def counters(self) -> dict[str, dict[str, int]]:
        """Records per node and event."""
        counts: dict[str, dict[str, int]] = {}
        for key, n in Counter(map(rshift, self._codes, repeat(32))).items():
            node, event, _ = self._keys[key]
            by_event = counts.setdefault(node, {})
            by_event[event] = by_event.get(event, 0) + n
        return counts

    def csv_rows(self):
        """The ``metrics.csv`` line of each record, without its line break."""
        heads = [f"{node},{event}," for node, event, _ in self._keys]
        tails = [f",{detail}" for _, _, detail in self._keys]
        for at, code in zip(self._times, self._codes):
            key = code >> 32
            cid = code & _CHUNK_MASK
            if cid:
                yield f"{at},{heads[key]}{cid - 1}{tails[key]}"
            else:
                yield f"{at},{heads[key]}{tails[key]}"


@dataclass(slots=True)
class Edge:
    index: int
    parent: str
    child: str
    # bit i is set when airtime on edge i collides with this one, the edge
    # itself included; see _compute_conflicts
    domain: int = 0
    severed_at: int | None = None
    attacked: bool = False


class EventQueue:
    """Time-ordered events; ties resolved by insertion sequence."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0

    def push(self, at: int, fn) -> None:
        heapq.heappush(self._heap, (at, self._seq, fn))
        self._seq += 1

    def pop(self):
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class Gateway:
    """The root, a producer with no PIT or content store: it answers each Interest
    from the repository on the face it came in on, and a name the repository does
    not hold with a ``no-data`` Nack if the scenario enables NACKs, else not at all."""

    def __init__(self, sim: "Simulation", node_id: str):
        self.sim = sim
        self.id = node_id
        self.faces: dict[int, tuple[Edge, SimNode, int]] = {}  # as on a device
        self.radio_free_at = 0

    def on_frame(self, face: int, interest: Interest, now: int) -> None:
        sim = self.sim
        name = interest.name
        publication = sim.repo.get(name.base)
        reply = None if publication is None else publication.data(name)
        if reply is None:
            if not sim.scenario.nacks_enabled:
                return
            reply = Nack(name, "no-data")
        sim.send_packet(self, face, reply, now + sim.scenario.node.proc_delay_us)


class SimNode:
    """One device: its forwarder and its update agent.

    The forwarder sends every request up face ``UPSTREAM``, the uplink;
    downlink faces follow it.
    """

    def __init__(self, sim: "Simulation", node_id: str, agent: UpdateAgent):
        self.sim = sim
        self.id = node_id
        # face -> (its edge, the node at the other end, that node's face for the edge)
        self.faces: dict[int, tuple[Edge, SimNode | Gateway, int]] = {}
        self.agent = agent
        self.radio_free_at = 0
        self.wake_at: int | None = None
        self.forwarder = Forwarder(
            nonce_source=lambda: sim.rng.getrandbits(32), node=sim.scenario.node,
            local_lookup=agent.serve_lookup, deny=agent.deny,
            implicit=agent.wants_implicit, divert=agent.divert_wanted,
        )

    # -- frame handling ---------------------------------------------------------

    def on_frame(self, face: int, packet: Packet, now: int) -> None:
        if isinstance(packet, Interest):
            actions = self.forwarder.on_interest(face, packet, now)
        elif isinstance(packet, Data):
            actions = self.forwarder.on_data(face, packet, now)
        else:
            actions = self.forwarder.on_nack(face, packet, now)
        self._execute(actions, now)
        self._rearm(now)

    def _execute(self, actions, now: int) -> None:
        delay = self.sim.scenario.node.proc_delay_us
        for action in actions:
            if isinstance(action, Forward):
                self.sim.send_packet(self, action.face, action.packet, now + delay)
            elif isinstance(action, DeliverLocal):
                self._deliver_local(action.packet, now)
            elif isinstance(action, DivertToBuffer):
                self.agent.on_chunk(action.data, now, diverted=True)
            elif isinstance(action, Retransmit):
                name = action.interest.name
                self.sim.log(now, self.id, "NetRetx", name.chunk_id, name.kind)
                self.sim.send_packet(self, action.face, action.interest, now)
            elif isinstance(action, Timeout):
                self.agent.on_timeout(action.name, now)
            # Aggregate / Drop / DenyCascading need no execution

    def _deliver_local(self, packet: Data | Nack, now: int) -> None:
        if isinstance(packet, Nack):
            self.agent.on_nack(packet)
        elif packet.name.kind == MANIFEST:
            self.agent.on_manifest(packet, now)
        else:
            self.agent.on_chunk(packet, now)

    # -- agent drive ---------------------------------------------------------------

    def wake(self, now: int) -> None:
        if self.wake_at is not None and now < self.wake_at:
            return  # stale wake; a fresher one is scheduled
        self.wake_at = None
        self._execute(self.forwarder.tick_retransmissions(now), now)
        self.agent.handle_deadlines(now)
        poll = self.agent.due_poll(now, self.sim.wall_s(now))
        if poll is not None:
            self._send_agent_interest(poll, now, is_retry=False)
        request = self.agent.take_request(now)
        if request is not None:
            interest, is_retry = request
            self._send_agent_interest(interest, now, is_retry)
        self._rearm(now)

    def _send_agent_interest(self, interest: Interest, now: int, is_retry: bool) -> None:
        actions = self.forwarder.on_local_interest(interest, now)
        event = "AppRetx" if is_retry else "InterestSent"
        name = interest.name
        for action in actions:
            if isinstance(action, Forward):
                self.sim.log(now, self.id, event, name.chunk_id, name.kind)
                self.sim.send_packet(self, action.face, action.packet, now)
            elif isinstance(action, Aggregate):
                self.sim.log(now, self.id, event, name.chunk_id, _AGGREGATED[name.kind])
            elif isinstance(action, Drop):
                # A full PIT: let the app-layer timer retry.
                self.agent.on_timeout(name, now)

    def _rearm(self, now: int) -> None:
        """Make sure a wake is queued for the earliest forwarder or agent deadline."""
        deadline = self.forwarder.next_deadline()
        agent_at = self.agent.next_action_at()
        if agent_at is not None and (deadline is None or agent_at < deadline):
            deadline = agent_at
        if deadline < now:
            deadline = now
        wake_at = self.wake_at
        if wake_at is None or deadline < wake_at:
            self.wake_at = deadline
            self.sim.queue.push(deadline, self.wake)


class Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.queue = EventQueue()
        self.now = 0
        self.records = EventLog()
        # log(at, node, event, chunk_id, detail) appends one record; bound to
        # the log itself, which saves a call per record
        self.log = self.records.append
        self.repo = Repository()
        self.images: dict[str, bytes] = {}  # device class -> the repository's image
        self.start_wall_s = scenario.epoch + 1
        loss = scenario.loss
        # loss probability of an attempt on a clear medium and of a collided one
        self._loss_p = (
            loss.per_transmission,
            1.0 - (1.0 - loss.per_transmission) * (1.0 - loss.collision),
        )
        # (start, end, edge index) of every attempt still on air at the
        # latest record; see _record_interval
        self._airtime: list[tuple[int, int, int]] = []
        agents = self._publish_firmware()
        self._build_network(agents)
        # first polls, drawn after every image, in device order
        stagger_us = int(scenario.poll_stagger_s * 1_000_000)
        for dev, agent in agents.items():
            agent.poll_at = self.rng.randrange(0, stagger_us + 1) if stagger_us else 0
            self.queue.push(agent.poll_at, self.nodes[dev].wake)
        self._wire_outage_and_attacker()
        self.pending = {dev for dev in scenario.topology.devices}

    # -- setup -------------------------------------------------------------------

    def _build_network(self, agents: dict[str, UpdateAgent]) -> None:
        topo = self.scenario.topology
        self.nodes: dict[str, SimNode | Gateway] = {
            nid: Gateway(self, nid) if nid == topo.root else SimNode(self, nid, agents[nid])
            for nid in topo.nodes
        }
        self.edges: list[Edge] = []
        next_face = {nid: (0 if nid == topo.root else UPSTREAM + 1) for nid in topo.nodes}
        for parent, child in topo.edges:
            face = next_face[parent]
            next_face[parent] += 1
            edge = Edge(len(self.edges), parent, child)
            self.edges.append(edge)
            up, down = self.nodes[parent], self.nodes[child]
            up.faces[face] = (edge, down, UPSTREAM)
            down.faces[UPSTREAM] = (edge, up, face)
        self._compute_conflicts()

    def _compute_conflicts(self) -> None:
        """Two edges collide when one node's group holds both: the edges at that
        node and at its neighbours. So an edge's domain is the union of the
        groups of its two ends and of their neighbours."""
        topo = self.scenario.topology
        incident = dict.fromkeys(topo.nodes, 0)
        for edge in self.edges:
            incident[edge.parent] |= 1 << edge.index
            incident[edge.child] |= 1 << edge.index

        def union(masks: dict[str, int], node: str) -> int:
            return reduce(or_, [masks[n] for n in topo.neighbors(node)], masks[node])

        group = {node: union(incident, node) for node in topo.nodes}
        for edge in self.edges:
            edge.domain = union(group, edge.parent) | union(group, edge.child)

    def _publish_firmware(self) -> dict[str, UpdateAgent]:
        """Publish every device class's image; return each device's agent."""
        sc = self.scenario
        key_seed = hashlib.sha256(b"fwdist-key:" + sc.vendor.encode()).digest()
        signing_key = signing_key_from_seed(key_seed)
        vendor_public = signing_key.public_key()
        class_of = {dev: sc.device_class_of(dev) for dev in sc.topology.devices}
        previous_epoch = sc.epoch - sc.granularity.period
        # a replay attacker serves the previous epoch's chunks, which are published after the current ones
        replayed = sc.attacker is not None and sc.attacker.mode == "replay_stale"
        epochs = (sc.epoch, previous_epoch) if replayed else (sc.epoch,)
        psks = {}
        for cls in dict.fromkeys(class_of.values()):  # first-seen device order fixes the draws' order
            psks[cls] = psk = hashlib.sha256(b"fwdist-psk:" + cls.encode()).digest()
            for epoch in epochs:
                image = FirmwareImage(BaseName(sc.deployment, sc.vendor, cls, epoch),
                                      self.rng.randbytes(sc.image_size))
                manifest = build_manifest(image, sc.chunk_size, signing_key)
                self.repo.publish(manifest, image.data, make_chunks(image, sc.chunk_size, psk, sc.trunc_len),
                                  psk)
            self.images[cls] = self.repo.get(BaseName(sc.deployment, sc.vendor, cls, sc.epoch)).image
        # Agents come up with the previous epoch installed.
        agents = {}
        for dev, cls in class_of.items():
            agents[dev] = UpdateAgent(
                sc,
                device_class=cls,
                psk=psks[cls],
                vendor_key=vendor_public,
                installed_epoch=previous_epoch,
                rng=self.rng,
                emit=self._agent_emitter(dev),
            )
        return agents

    def _wire_outage_and_attacker(self) -> None:
        sc = self.scenario
        self._outage_trigger_node: str | None = None
        self._outage_edge: Edge | None = None
        if sc.outage is not None:
            edge = self._find_edge(sc.outage.edge, "outage.edge")
            self._outage_edge = edge
            if sc.outage.at_s is not None:
                edge.severed_at = int(sc.outage.at_s * 1_000_000)
            else:
                self._outage_trigger_node = sc.outage.after_install
        if sc.attacker is not None:
            self._find_edge(sc.attacker.edge, "attacker.edge").attacked = True

    def _find_edge(self, pair: tuple[str, str], fieldname: str) -> Edge:
        for edge in self.edges:
            if {edge.parent, edge.child} == {pair[0], pair[1]}:
                return edge
        raise ScenarioInvalid(fieldname, f"no link between {pair[0]} and {pair[1]}")

    # -- clock / logging ------------------------------------------------------------

    def wall_s(self, now_us: int) -> int:
        return self.start_wall_s + now_us // 1_000_000

    def _agent_emitter(self, node_id: str):
        def emit(event: str, chunk_id: int | None, detail: str) -> None:
            self.log(self.now, node_id, event, chunk_id, detail)
            if event == "InstallComplete":
                if self._outage_trigger_node == node_id and self._outage_edge is not None:
                    self._outage_edge.severed_at = self.now
                self.pending.discard(node_id)
            elif event == "Abort" and detail.startswith("irrecoverable"):
                self.pending.discard(node_id)
        return emit

    # -- medium ----------------------------------------------------------------------

    def transmit(self, src: SimNode | Gateway, edge: Edge, size_bytes: int, t: int,
                 on_delivered, log_kind: str = "frame", chunk_id: int | None = None) -> None:
        """Send one frame over one link with link-layer ARQ and random backoff.

        An attempt that overlaps airtime on this link or a conflicting one is
        lost with the higher collision probability. A lost attempt is retried
        at its end, up to ``link.retries`` times, and each retry logs a
        ``LinkRetx`` record. ``on_delivered(time)`` is scheduled for the end of
        the first successful attempt plus the propagation delay. A frame whose
        attempts are all lost, or that would arrive after the link is severed,
        is dropped with no further record. ``send_packet`` keeps every frame
        within ``link.mtu_bytes``.
        """
        self._attempt(src, edge, size_bytes, 0, t, on_delivered, log_kind, chunk_id)

    def _attempt(self, src: SimNode | Gateway, edge: Edge, size: int, attempt: int, t: int,
                 on_delivered, log_kind: str, chunk_id: int | None) -> None:
        link = self.scenario.link
        if attempt > 0:
            # retries run as queued events, so this timestamp is the global now
            self.log(t, src.id, "LinkRetx", chunk_id, log_kind)
        # rng.randrange(0, n) without its argument handling: the same
        # getrandbits rejection loop, so the same draws and the same value.
        # The benchmark's self-test edits this expression to change the draws.
        n = ((1 << attempt) * link.base_slot_us + 1)
        bits = n.bit_length()
        getrandbits = self.rng.getrandbits
        backoff = getrandbits(bits)
        while backoff >= n:
            backoff = getrandbits(bits)
        start = t + backoff
        if start < src.radio_free_at:
            start = src.radio_free_at
        end = start + size * 8 * 1_000_000 // link.bandwidth_bps
        src.radio_free_at = end
        collided = self._medium_overlap(edge, start, end)
        self._record_interval(edge, start, end)
        p_clear, p_collided = self._loss_p
        if self.rng.random() < (p_collided if collided else p_clear):
            if attempt < link.retries:
                self.queue.push(end, lambda now: self._attempt(
                    src, edge, size, attempt + 1, now, on_delivered, log_kind, chunk_id))
            return
        delivery = end + link.propagation_us
        if edge.severed_at is not None and delivery >= edge.severed_at:
            return
        self.queue.push(delivery, on_delivered)

    def _medium_overlap(self, edge: Edge, start: int, end: int) -> bool:
        """Whether [start, end) overlaps live airtime on ``edge`` or a conflicting edge."""
        domain = edge.domain
        for s, e, idx in self._airtime:
            if s < end and start < e and domain >> idx & 1:
                return True
        return False

    def _record_interval(self, edge: Edge, start: int, end: int) -> None:
        """Add an airtime interval on ``edge`` and drop the ones that are over.

        Every attempt starts at or after the current simulated time, so an
        interval that ended at or before ``self.now`` can never overlap a
        later one; only live intervals, on any edge, are kept.
        """
        now = self.now
        live = [iv for iv in self._airtime if iv[1] > now]
        live.append((start, end, edge.index))
        self._airtime = live

    def send_packet(self, src: SimNode | Gateway, face: int, packet: Packet, t: int) -> None:
        """Fragmenting packet send: frames above the MTU split into sub-frames."""
        edge, peer, dst_face = src.faces[face]
        link = self.scenario.link
        total = packet_size(packet, self.scenario.name_encoding) + link.link_header_bytes
        mtu = link.mtu_bytes
        kind = _LOG_KIND[type(packet)]
        cid = packet.name.chunk_id

        def arrive(now: int) -> None:
            final = packet
            if edge.attacked and isinstance(packet, Data) and packet.name.kind == CHUNK:
                final = self._maybe_tamper(packet)
            peer.on_frame(dst_face, final, now)

        if total <= mtu:
            self.transmit(src, edge, total, t, arrive, kind, cid)
            return

        def fragment_delivered(remaining: int):
            # the next fragment leaves once the previous one has arrived
            def send_next(now: int) -> None:
                size = min(remaining, mtu)
                after = arrive if size == remaining else fragment_delivered(remaining - size)
                self.transmit(src, edge, size, now, after, kind, cid)
            return send_next

        self.transmit(src, edge, mtu, t, fragment_delivered(total - mtu), kind, cid)

    def _maybe_tamper(self, data: Data) -> Data:
        spec = self.scenario.attacker
        if spec.rate <= 0.0:
            return data  # no-op attacker consumes no draws
        if self.rng.random() >= spec.rate:
            return data
        if spec.mode == "forge_tag":
            return Data(data.name, data.payload, HmacTag(bytes(b ^ 0xFF for b in data.auth.tag)))
        if spec.mode == "replay_stale":
            # substitute the same-index chunk of the previous epoch, renamed to
            # the current version; its tag binds the old base name. Set-up
            # publishes that epoch with the same image and chunk sizes, and
            # only chunks of the current epoch are ever served, so it always
            # holds this chunk.
            sc = self.scenario
            name = data.name
            previous = name.base._replace(epoch=sc.epoch - sc.granularity.period).chunk(name.chunk_id)
            stale = self.repo.get(previous.base).data(previous)
            return Data(name, stale.payload, stale.auth)
        # tamper_payload
        payload = bytes([data.payload[0] ^ 0xFF]) + data.payload[1:]
        return Data(data.name, payload, data.auth)

    # -- execution ----------------------------------------------------------------

    def run(self) -> "SimResult":
        duration = self.scenario.duration_us()
        queue = self.queue
        heap = queue._heap
        while heap and self.pending:
            at, _, fn = queue.pop()
            if duration <= 0 or at > duration:
                break
            self.now = at
            fn(at)
        return SimResult(self)


class SimResult:
    """Event records plus per-node outcome summary of one run."""

    def __init__(self, sim: Simulation):
        self.scenario = sim.scenario
        self.records = sim.records
        counters = sim.records.counters()
        self.images = sim.images
        topo = sim.scenario.topology
        self.node_stats: dict[str, dict] = {}
        for dev in topo.devices:
            agent = sim.nodes[dev].agent
            counts = counters.get(dev, {})
            aborted = counts.get("Abort", 0) > 0
            first, last = agent.first_chunk_recv_us, agent.last_chunk_recv_us  # set together
            self.node_stats[dev] = {
                "rank": topo.ranks[dev],
                "install_time_us": agent.install_time_us,
                "first_chunk_recv_us": first,
                "last_chunk_recv_us": last,
                "fetch_span_us": None if first is None else last - first,
                "installed_epoch": agent.installed_epoch,
                "aborted": aborted,
                "net_retx": counts.get("NetRetx", 0),
                "app_retx": counts.get("AppRetx", 0),
                "link_retx": counts.get("LinkRetx", 0),
                "tag_fail": counts.get("TagFail", 0),
                "data_recv": counts.get("DataRecv", 0),
                "installed_bytes": None if agent.serving is None else agent.serving.image,
                "device_class": sim.scenario.device_class_of(dev),
            }

    def completed_nodes(self) -> list[str]:
        return [n for n, s in self.node_stats.items()
                if s["install_time_us"] is not None and s["installed_epoch"] == self.scenario.epoch]

    def completion_time_us(self, nodes) -> int | None:
        """Latest install time across ``nodes``; None if one has none, or if there are none."""
        times = [self.node_stats[n]["install_time_us"] for n in nodes]
        if None in times:
            return None
        return max(times, default=None)

    def summary(self) -> dict:
        completed = self.completed_nodes()
        per_node = {node: {k: v for k, v in stats.items() if k != "installed_bytes"}
                    for node, stats in self.node_stats.items()}
        return {
            "strategy": self.scenario.strategy,
            "seed": self.scenario.seed,
            "chunk_count": self.scenario.chunk_count(),
            "completions": len(completed),
            "devices": len(self.node_stats),
            "aborted": sorted(n for n, s in self.node_stats.items() if s["aborted"]),
            "completion_time_us": self.completion_time_us(completed),
            "nodes": per_node,
        }

    def csv_lines(self):
        yield CSV_HEADER
        yield from self.records.csv_rows()


def run_simulation(scenario: Scenario) -> SimResult:
    return Simulation(scenario).run()
