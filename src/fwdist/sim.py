"""Seeded discrete-event simulator: DODAG of forwarder+agent nodes over lossy
shared-medium links with link-layer ARQ, optional attacker and uplink outage.

Determinism contract: simulated time is integer microseconds, the event queue
breaks ties by insertion sequence, and every stochastic draw comes from one
scenario-seeded generator consumed in event order, so equal (scenario, seed)
pairs replay bit-identically (including across processes).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .agent import AgentConfig, InstalledFirmware, UpdateAgent
from .forwarder import (
    Aggregate,
    DeliverLocal,
    DivertToBuffer,
    Drop,
    Forward,
    ForwardDownstream,
    Forwarder,
    Retransmit,
    ServeData,
    ServeNack,
    Timeout,
)
from .naming import CHUNK, MANIFEST, BaseName, FirmwareName
from .packets import Data, HmacTag, Interest, ManifestSignature, Nack, Packet, chunk_id_of, packet_size
from .scenario import Scenario, ScenarioInvalid
from .vendor import (
    Chunk,
    FirmwareImage,
    Repository,
    build_manifest,
    make_chunks,
    signing_key_from_seed,
)


class MtuExceeded(ValueError):
    pass


@dataclass(slots=True)
class Edge:
    index: int
    parent: str
    child: str
    face_at_parent: int
    face_at_child: int
    conflicts: list[int] = field(default_factory=list)
    # bit i is set when airtime on edge i collides with this one: the edge
    # itself and its conflicts
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


class SimNode:
    """One network node: forwarder plus optional update agent or repository."""

    def __init__(self, sim: "Simulation", node_id: str, is_gateway: bool):
        self.sim = sim
        self.id = node_id
        self.is_gateway = is_gateway
        self.faces: dict[int, tuple[Edge, str]] = {}
        self.agent: UpdateAgent | None = None
        self.radio_free_at = 0
        self.wake_at: int | None = None
        self.now = 0
        self.agent_pending_name: FirmwareName | None = None
        self._serve_cache: dict[FirmwareName, Data] = {}
        self.forwarder = Forwarder(
            nonce_source=lambda: sim.rng.getrandbits(32),
            pit_capacity=sim.scenario.node.pit_capacity,
            cs_capacity=sim.scenario.node.cs_capacity,
            seen_capacity=sim.scenario.node.seen_capacity,
            local_lookup=self._local_lookup,
            deny=self._deny,
            implicit=self._implicit,
            divert=self._divert,
            nack_lookup=self._nack_lookup,
        )

    # -- forwarder hooks ------------------------------------------------------

    def _local_lookup(self, name: FirmwareName) -> Data | None:
        if self.is_gateway:
            cached = self._serve_cache.get(name)
            if cached is not None:
                return cached
            data = self.sim.repo_lookup(name)
            if data is not None:
                self._serve_cache[name] = data
            return data
        if self.agent is not None:
            return self.agent.serve_lookup(name)
        return None

    def _deny(self, interest: Interest) -> bool:
        return self.agent is not None and self.agent.deny(interest)

    def _implicit(self, interest: Interest) -> bool:
        return self.agent is not None and self.agent.wants_implicit(interest)

    def _divert(self, data: Data) -> bool:
        return self.agent is not None and self.agent.divert_wanted(data)

    def _nack_lookup(self, interest: Interest) -> Nack | None:
        if not self.is_gateway or not self.sim.scenario.nacks_enabled:
            return None
        return self.sim.repo_nack(interest)

    # -- frame handling ---------------------------------------------------------

    def on_frame(self, face: int, packet: Packet, now: int) -> None:
        self.now = now
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
            if isinstance(action, (ServeData, ServeNack)):
                packet = action.data if isinstance(action, ServeData) else action.nack
                self.sim.send_packet(self, action.face, packet, now + delay)
            elif isinstance(action, Forward):
                self.sim.send_packet(self, action.face, action.interest, now + delay)
            elif isinstance(action, ForwardDownstream):
                for face in action.faces:
                    self.sim.send_packet(self, face, action.packet, now + delay)
            elif isinstance(action, DeliverLocal):
                self._deliver_local(action.packet, now)
            elif isinstance(action, DivertToBuffer):
                self.agent.on_chunk(action.data, now, diverted=True)
            elif isinstance(action, Retransmit):
                self.sim.log(now, self.id, "NetRetx", chunk_id_of(action.interest),
                             action.interest.name.kind)
                self.sim.send_packet(self, action.face, action.interest, now)
            elif isinstance(action, Timeout):
                if self.agent_pending_name == action.name:
                    self.agent_pending_name = None
                if self.agent is not None:
                    self.agent.on_timeout(action.name, now)
            # Aggregate / Drop / DenyCascading / CacheInsert need no execution

    def _deliver_local(self, packet: Data | Nack, now: int) -> None:
        if self.agent is None:
            return
        if packet.name == self.agent_pending_name:
            self.agent_pending_name = None
        if isinstance(packet, Nack):
            self.agent.on_nack(packet, now)
        elif packet.name.kind == MANIFEST:
            self.agent.on_manifest(packet, now)
        elif packet.name.kind == CHUNK:
            self.agent.on_chunk(packet, now)

    # -- agent drive ---------------------------------------------------------------

    def wake(self, now: int) -> None:
        self.now = now
        if self.wake_at is not None and now < self.wake_at:
            return  # stale wake; a fresher one is scheduled
        self.wake_at = None
        self._execute(self.forwarder.tick_retransmissions(now), now)
        if self.agent is not None:
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
        for action in actions:
            if isinstance(action, Forward):
                self.sim.log(now, self.id, event, chunk_id_of(interest), interest.name.kind)
                self.agent_pending_name = interest.name
                self.sim.send_packet(self, action.face, action.interest, now)
            elif isinstance(action, Aggregate):
                self.sim.log(now, self.id, event, chunk_id_of(interest),
                             interest.name.kind + ";aggregated")
                self.agent_pending_name = interest.name
            elif isinstance(action, Drop):
                # No route or table pressure: let the app-layer timer retry.
                self.agent.on_timeout(interest.name, now)

    def _rearm(self, now: int) -> None:
        """Withdraw a local PIT entry the agent no longer waits for, then make
        sure a wake is queued for the earliest forwarder or agent deadline."""
        agent = self.agent
        forwarder = self.forwarder
        if agent is not None:
            pending = self.agent_pending_name
            if pending is not None and agent.outstanding_name != pending and (
                agent.awaited_manifest != pending
            ):
                forwarder.cancel_local(pending)
                self.agent_pending_name = None
        deadline = forwarder.next_deadline()
        if agent is not None:
            agent_at = agent.next_action_at()
            if agent_at is not None and (deadline is None or agent_at < deadline):
                deadline = agent_at
        if deadline is None:
            return
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
        self.records: list[tuple[int, str, str, int | None, str]] = []
        self.repo = Repository()
        self.images: dict[str, bytes] = {}  # device class -> published image
        self.psks: dict[str, bytes] = {}
        self._stale: dict[str, list[Chunk]] = {}
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
        self._build_network()
        self._publish_firmware()
        self._wire_outage_and_attacker()
        self.pending = {dev for dev in scenario.topology.devices}

    # -- setup -------------------------------------------------------------------

    def _build_network(self) -> None:
        topo = self.scenario.topology
        self.nodes: dict[str, SimNode] = {
            nid: SimNode(self, nid, is_gateway=(nid == topo.root)) for nid in topo.nodes
        }
        # Face 0 of every device is its uplink; downlink faces follow.
        self.edges: list[Edge] = []
        next_face = {nid: (0 if nid == topo.root else 1) for nid in topo.nodes}
        for parent, child in topo.edges:
            face = next_face[parent]
            next_face[parent] += 1
            edge = Edge(len(self.edges), parent, child, face_at_parent=face, face_at_child=0)
            self.edges.append(edge)
            self.nodes[parent].faces[face] = (edge, child)
            self.nodes[child].faces[0] = (edge, parent)
        self._compute_conflicts()

    def _compute_conflicts(self) -> None:
        topo = self.scenario.topology
        incident: dict[str, list[int]] = {n: [] for n in topo.nodes}
        for edge in self.edges:
            incident[edge.parent].append(edge.index)
            incident[edge.child].append(edge.index)
        conflict_sets: dict[int, set[int]] = {e.index: set() for e in self.edges}
        for node in topo.nodes:
            group: list[int] = list(incident[node])
            for neighbor in topo.neighbors(node):
                group.extend(incident[neighbor])
            members = sorted(set(group))
            for a in members:
                for b in members:
                    if a != b:
                        conflict_sets[a].add(b)
        for edge in self.edges:
            edge.conflicts = sorted(conflict_sets[edge.index])
            edge.domain = sum(1 << i for i in conflict_sets[edge.index] | {edge.index})

    def _device_class_of(self, node_id: str) -> str:
        if self.scenario.multiparty:
            return f"{self.scenario.device_class}-{node_id}"
        return self.scenario.device_class

    def _publish_firmware(self) -> None:
        sc = self.scenario
        key_seed = hashlib.sha256(b"fwdist-key:" + sc.vendor.encode()).digest()
        self.signing_key = signing_key_from_seed(key_seed)
        self.vendor_public = self.signing_key.public_key()
        classes: list[str] = []
        for dev in sc.topology.devices:
            cls = self._device_class_of(dev)
            if cls not in classes:
                classes.append(cls)
        stale_needed = sc.attacker is not None and sc.attacker.mode == "replay_stale"
        for cls in classes:
            psk = hashlib.sha256(b"fwdist-psk:" + cls.encode()).digest()
            self.psks[cls] = psk
            image_bytes = self.rng.randbytes(sc.image_size)
            self.images[cls] = image_bytes
            image = FirmwareImage(image_bytes, cls, sc.epoch)
            manifest = build_manifest(image, sc.chunk_size, self.signing_key, sc.deployment, sc.vendor)
            chunks = make_chunks(image, manifest.base, sc.chunk_size, psk, sc.trunc_len)
            self.repo.publish(manifest, chunks, psk)
            if stale_needed:
                stale_epoch = sc.epoch - sc.granularity.period
                stale_bytes = self.rng.randbytes(sc.image_size)
                stale_base = BaseName(sc.deployment, sc.vendor, cls, stale_epoch)
                self._stale[cls] = make_chunks(
                    FirmwareImage(stale_bytes, cls, stale_epoch),
                    stale_base, sc.chunk_size, psk, sc.trunc_len,
                )
        # Agents come up with the previous epoch installed.
        previous_epoch = sc.epoch - sc.granularity.period
        stagger_us = int(sc.poll_stagger_s * 1_000_000)
        agent_cfg = AgentConfig(
            turnaround_us=sc.node.turnaround_us,
            flash_write_us=sc.node.flash_write_us,
            verify_delay_us=sc.node.verify_delay_us,
            install_delay_us=sc.node.install_delay_us,
            app_retx_base_us=int(sc.agent.app_retx_base_s * 1_000_000),
            app_retx_jitter_us=int(sc.agent.app_retx_jitter_s * 1_000_000),
            manifest_retries=sc.agent.manifest_retries,
            digest_retries=sc.agent.digest_retries,
            poll_period_us=int(sc.poll_period_s * 1_000_000),
            trunc_len=sc.trunc_len,
        )
        for dev in sc.topology.devices:
            cls = self._device_class_of(dev)
            node = self.nodes[dev]
            factory = b"factory:" + dev.encode()
            node.agent = UpdateAgent(
                deployment=sc.deployment,
                vendor=sc.vendor,
                device_class=cls,
                psk=self.psks[cls],
                vendor_key=self.vendor_public,
                strategy=sc.strategy,
                granularity=sc.granularity,
                installed=InstalledFirmware(factory, previous_epoch),
                rng=self.rng,
                config=agent_cfg,
                emit=self._agent_emitter(node),
            )
            node.forwarder.fib.add((), 0)  # default route toward the repository
            node.agent.poll_at = self.rng.randrange(0, stagger_us + 1) if stagger_us else 0
            self.queue.push(node.agent.poll_at, node.wake)

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
        self._attacked_edge: Edge | None = None
        if sc.attacker is not None:
            edge = self._find_edge(sc.attacker.edge, "attacker.edge")
            edge.attacked = True
            self._attacked_edge = edge

    def _find_edge(self, pair: tuple[str, str], fieldname: str) -> Edge:
        for edge in self.edges:
            if {edge.parent, edge.child} == {pair[0], pair[1]}:
                return edge
        raise ScenarioInvalid(fieldname, f"no link between {pair[0]} and {pair[1]}")

    # -- repository serving ---------------------------------------------------------

    def repo_lookup(self, name: FirmwareName) -> Data | None:
        if name.kind == MANIFEST:
            manifest = self.repo.lookup_manifest(name.base)
            if manifest is None:
                return None
            return Data(name, manifest.to_bytes(), ManifestSignature(manifest.signature))
        if name.kind == CHUNK:
            chunk = self.repo.lookup_chunk(name.base, name.chunk_id)
            if chunk is None:
                return None
            return Data(name, chunk.payload, HmacTag(chunk.tag))
        return None

    def repo_nack(self, interest: Interest) -> Nack | None:
        if self.repo_lookup(interest.name) is not None:
            return None
        freshness = int(self.scenario.poll_period_s * 1000)
        return Nack(interest.name, "no-data", freshness)

    # -- clock / logging ------------------------------------------------------------

    def wall_s(self, now_us: int) -> int:
        return self.start_wall_s + now_us // 1_000_000

    def log(self, at: int, node: str, event: str, chunk_id: int | None, detail: str) -> None:
        self.records.append((at, node, event, chunk_id, detail))

    @property
    def counters(self) -> dict[str, dict[str, int]]:
        """Records per node and event, counted over ``records`` in one pass."""
        counts: dict[str, dict[str, int]] = {}
        for (node, event), n in Counter(map(itemgetter(1, 2), self.records)).items():
            counts.setdefault(node, {})[event] = n
        return counts

    def _agent_emitter(self, node: SimNode):
        def emit(event: str, chunk_id: int | None, detail: str) -> None:
            if event == "ChunkStored":
                event = "DataRecv"
            self.log(node.now, node.id, event, chunk_id, detail)
            if event == "InstallComplete":
                if self._outage_trigger_node == node.id and self._outage_edge is not None:
                    self._outage_edge.severed_at = node.now
                self.pending.discard(node.id)
            elif event == "Abort" and detail.startswith("irrecoverable"):
                self.pending.discard(node.id)
        return emit

    # -- medium ----------------------------------------------------------------------

    def transmit(self, src: SimNode, edge: Edge, size_bytes: int, t: int,
                 on_delivered, log_kind: str = "frame", chunk_id: int | None = None) -> None:
        """Send one frame over one link with link-layer ARQ and random backoff.

        An attempt that overlaps airtime on this link or a conflicting one is
        lost with the higher collision probability. A lost attempt is retried
        at its end, up to ``link.retries`` times, and each retry logs a
        ``LinkRetx`` record. ``on_delivered(time)`` is scheduled for the end of
        the first successful attempt plus the propagation delay. A frame whose
        attempts are all lost, or that would arrive after the link is severed,
        is dropped with no further record.
        """
        link = self.scenario.link
        if size_bytes > link.mtu_bytes:
            raise MtuExceeded(f"frame of {size_bytes} bytes exceeds {link.mtu_bytes}-byte MTU")
        self._attempt(src, edge, size_bytes, 0, t, on_delivered, log_kind, chunk_id)

    def _attempt(self, src: SimNode, edge: Edge, size: int, attempt: int, t: int,
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

    def send_packet(self, src: SimNode, face: int, packet: Packet, t: int) -> None:
        """Fragmenting packet send: frames above the MTU split into sub-frames."""
        edge, peer_id = src.faces[face]
        link = self.scenario.link
        total = packet_size(packet, self.scenario.name_encoding) + link.link_header_bytes
        mtu = link.mtu_bytes
        peer = self.nodes[peer_id]
        dst_face = edge.face_at_child if peer_id == edge.child else edge.face_at_parent
        kind = type(packet).__name__.lower()
        cid = chunk_id_of(packet)

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
        if spec.mode == "tamper_payload":
            payload = bytes([data.payload[0] ^ 0xFF]) + data.payload[1:]
            return Data(data.name, payload, data.auth, data.freshness_ms)
        if spec.mode == "forge_tag":
            tag = bytes(b ^ 0xFF for b in data.auth.tag) if isinstance(data.auth, HmacTag) else b"\x00" * 8
            return Data(data.name, data.payload, HmacTag(tag), data.freshness_ms)
        # replay_stale: substitute the same-index chunk of the previous epoch,
        # renamed to the current version; its tag binds the old base name.
        cls = data.name.base.device_class
        stale = self._stale.get(cls)
        idx = data.name.chunk_id
        if stale is not None and 0 <= idx < len(stale):
            return Data(data.name, stale[idx].payload, HmacTag(stale[idx].tag), data.freshness_ms)
        payload = bytes([data.payload[0] ^ 0xFF]) + data.payload[1:]
        return Data(data.name, payload, data.auth, data.freshness_ms)

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
        self.counters = counters = sim.counters
        self.images = sim.images
        topo = sim.scenario.topology
        self.node_stats: dict[str, dict] = {}
        for dev in topo.devices:
            agent = sim.nodes[dev].agent
            counts = counters.get(dev, {})
            aborted = counts.get("Abort", 0) > 0
            fetch_span = None
            if agent.first_chunk_recv_us is not None and agent.last_chunk_recv_us is not None:
                fetch_span = agent.last_chunk_recv_us - agent.first_chunk_recv_us
            self.node_stats[dev] = {
                "rank": topo.ranks[dev],
                "install_time_us": agent.install_time_us,
                "first_chunk_recv_us": agent.first_chunk_recv_us,
                "last_chunk_recv_us": agent.last_chunk_recv_us,
                "fetch_span_us": fetch_span,
                "installed_epoch": agent.installed.epoch,
                "aborted": aborted,
                "net_retx": counts.get("NetRetx", 0),
                "app_retx": counts.get("AppRetx", 0),
                "link_retx": counts.get("LinkRetx", 0),
                "tag_fail": counts.get("TagFail", 0),
                "data_recv": counts.get("DataRecv", 0),
            }
            self.node_stats[dev]["installed_bytes"] = agent.installed.data
            self.node_stats[dev]["device_class"] = agent.device_class

    def install_time(self, node: str) -> int | None:
        return self.node_stats[node]["install_time_us"]

    def completed_nodes(self) -> list[str]:
        return [n for n, s in self.node_stats.items()
                if s["install_time_us"] is not None and s["installed_epoch"] == self.scenario.epoch]

    def completion_time_us(self, nodes=None) -> int | None:
        """Latest install time across the given nodes (default: all devices)."""
        nodes = list(nodes) if nodes is not None else list(self.node_stats)
        times = [self.node_stats[n]["install_time_us"] for n in nodes]
        if any(t is None for t in times):
            return None
        return max(times) if times else None

    def summary(self) -> dict:
        completed = self.completed_nodes()
        per_node = {}
        for node, stats in self.node_stats.items():
            per_node[node] = {k: v for k, v in stats.items() if k != "installed_bytes"}
        return {
            "strategy": self.scenario.strategy,
            "seed": self.scenario.seed,
            "chunk_count": self.scenario.chunk_count(),
            "completions": len(completed),
            "devices": len(self.node_stats),
            "aborted": sorted(n for n, s in self.node_stats.items() if s["aborted"]),
            "completion_time_us": self.completion_time_us(completed) if completed else None,
            "nodes": per_node,
        }

    def csv_lines(self):
        yield "sim_time_us,node,event,chunk_id,detail"
        for at, node, event, chunk_id, detail in self.records:
            cid = "" if chunk_id is None else str(chunk_id)
            yield f"{at},{node},{event},{cid},{detail}"


def run_simulation(scenario: Scenario) -> SimResult:
    return Simulation(scenario).run()
