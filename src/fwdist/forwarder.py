"""Minimal NDN-style forwarder of a device: PIT with aggregation, LRU content
store, and one upstream face.

The PIT is a dict from name to entry, at most ``node.pit_capacity`` long. Every
name goes up face ``UPSTREAM``, the device's uplink; the gateway at the root
is a producer (``sim.Gateway``) and runs no forwarder. On this tree an
Interest never comes back to a node, so there is no nonce loop check.

The forwarder mutates its own tables and returns explicit action lists; the
surrounding node decides how to execute them. Every packet the node sends is
one ``Forward(face, packet)``; the other actions hand packets to the local
update agent or only report an outcome. Hooks decouple it from the agent:

* ``local_lookup(name)``   -- serve from flash / chunk buffer
* ``deny(interest)``       -- cascading-mode chunk denial
* ``implicit(interest)``   -- register the local agent on a forwarded manifest
* ``divert(data)``         -- should unsolicited/in-transit chunk Data be
                              diverted into the local chunk buffer

All timestamps are integer microseconds of simulated time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from .naming import FirmwareName
from .packets import Data, Interest, Nack
from .scenario import NodeParams

RETX_INTERVAL_US = 2_000_000
RETX_BUDGET = 3
UPSTREAM = 0  # a device's uplink face; its downlink faces follow


# ---------------------------------------------------------------------------
# actions
#
# An action lives only from the forwarder's return to the node's execution of
# it, so the classes are slotted but not frozen: a frozen dataclass costs
# about twice as much to build.


@dataclass(slots=True)
class Aggregate:
    name: FirmwareName


@dataclass(slots=True)
class Forward:
    face: int
    packet: Interest | Data | Nack


@dataclass(slots=True)
class Drop:
    reason: str


@dataclass(slots=True)
class DenyCascading:
    name: FirmwareName


@dataclass(slots=True)
class DeliverLocal:
    packet: Data | Nack


@dataclass(slots=True)
class DivertToBuffer:
    data: Data


@dataclass(slots=True)
class Retransmit:
    face: int
    interest: Interest


@dataclass(slots=True)
class Timeout:
    name: FirmwareName


Action = (
    Aggregate | Forward | Drop | DenyCascading | DeliverLocal | DivertToBuffer
    | Retransmit | Timeout
)


# ---------------------------------------------------------------------------
# tables


@dataclass(slots=True)
class PitEntry:
    name: FirmwareName
    downstream_faces: list[int] = field(default_factory=list)
    local_consumer: bool = False
    retx_budget: int = RETX_BUDGET
    next_retx_at: int = 0


class ContentStore:
    """Fixed-capacity cache with least-recently-used replacement.

    The dict's order is the recency order: least recently used first.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[FirmwareName, Data] = OrderedDict()

    def lookup(self, name: FirmwareName) -> Data | None:
        data = self._entries.get(name)
        if data is not None:
            self._entries.move_to_end(name)
        return data

    def insert(self, data: Data) -> FirmwareName | None:
        """Insert (or refresh) an entry; returns the evicted name, if any."""
        if self.capacity == 0:
            return None
        entries = self._entries
        if data.name in entries:
            entries[data.name] = data
            entries.move_to_end(data.name)
            return None
        evicted = None
        if len(entries) >= self.capacity:
            evicted, _ = entries.popitem(last=False)
        entries[data.name] = data
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[FirmwareName]:
        return list(self._entries)


class Forwarder:
    """A device's forwarding state machine."""

    def __init__(
        self,
        *,
        nonce_source: Callable[[], int],
        node: NodeParams = NodeParams(),
        local_lookup: Callable[[FirmwareName], Data | None] | None = None,
        deny: Callable[[Interest], bool] | None = None,
        implicit: Callable[[Interest], bool] | None = None,
        divert: Callable[[Data], bool] | None = None,
    ):
        self.pit: dict[FirmwareName, PitEntry] = {}
        self.pit_capacity = node.pit_capacity
        self.cs = ContentStore(node.cs_capacity)
        self._nonce = nonce_source
        self._local_lookup = local_lookup or (lambda name: None)
        self._deny = deny or (lambda interest: False)
        self._implicit = implicit or (lambda interest: False)
        self._divert = divert or (lambda data: False)

    # -- interests ----------------------------------------------------------

    def on_interest(self, face: int, interest: Interest, now: int) -> list[Action]:
        # Cascading denial comes before any delivery path: a node that has not
        # completed its own update must not leak same-class chunks downstream,
        # whether from cache, buffer, or an aggregated in-flight request.
        if self._deny(interest):
            return [DenyCascading(interest.name)]
        cached = self.cs.lookup(interest.name)
        if cached is not None:
            return [Forward(face, cached)]
        local = self._local_lookup(interest.name)
        if local is not None:
            return [Forward(face, local)]
        entry = self.pit.get(interest.name)
        if entry is not None:
            if face not in entry.downstream_faces:
                entry.downstream_faces.append(face)
            if self._implicit(interest):
                entry.local_consumer = True
            return [Aggregate(interest.name)]
        if len(self.pit) >= self.pit_capacity:
            return [Drop("pit-full")]
        self.pit[interest.name] = entry = PitEntry(
            name=interest.name,
            downstream_faces=[face],
            next_retx_at=now + RETX_INTERVAL_US,
        )
        # registered only once the entry exists: a refused insert must not
        # leave the agent awaiting a manifest that nothing will deliver
        if self._implicit(interest):
            entry.local_consumer = True
        return [Forward(UPSTREAM, interest)]

    def on_local_interest(self, interest: Interest, now: int) -> list[Action]:
        """Interest originated by this node's own agent."""
        entry = self.pit.get(interest.name)
        if entry is not None:
            entry.local_consumer = True
            return [Aggregate(interest.name)]
        if len(self.pit) >= self.pit_capacity:
            return [Drop("pit-full")]
        self.pit[interest.name] = PitEntry(
            name=interest.name,
            local_consumer=True,
            next_retx_at=now + RETX_INTERVAL_US,
        )
        return [Forward(UPSTREAM, interest)]

    # -- data / nacks -------------------------------------------------------

    def on_data(self, face: int, data: Data, now: int) -> list[Action]:
        entry = self.pit.pop(data.name, None)
        if entry is None:
            if self._divert(data):
                return [DivertToBuffer(data)]
            return [Drop("unsolicited")]
        actions: list[Action] = [DeliverLocal(data)] if entry.local_consumer else []
        actions.extend(Forward(f, data) for f in entry.downstream_faces)
        diverting = not entry.local_consumer and self._divert(data)
        if diverting:
            actions.append(DivertToBuffer(data))
        elif not entry.local_consumer:
            # Own-image chunks live in the agent buffer; the CS caches foreign
            # in-transit objects only.
            self.cs.insert(data)
        return actions

    def on_nack(self, face: int, nack: Nack, now: int) -> list[Action]:
        entry = self.pit.pop(nack.name, None)
        if entry is None:
            return [Drop("unsolicited-nack")]
        actions: list[Action] = [DeliverLocal(nack)] if entry.local_consumer else []
        actions.extend(Forward(f, nack) for f in entry.downstream_faces)
        return actions

    # -- timers -------------------------------------------------------------

    def tick_retransmissions(self, now: int) -> list[Action]:
        """Re-emit or expire pending entries whose deadline has passed."""
        due = [e for e in self.pit.values() if e.next_retx_at <= now]
        if len(due) > 1:  # a single due entry needs no ordering, nor its components
            due.sort(key=lambda e: (e.next_retx_at, e.name.components()))
        actions: list[Action] = []
        for entry in due:
            if entry.retx_budget > 0:
                entry.retx_budget -= 1
                entry.next_retx_at += RETX_INTERVAL_US
                retx = Interest(entry.name, self._nonce())
                actions.append(Retransmit(UPSTREAM, retx))
            else:
                del self.pit[entry.name]
                if entry.local_consumer:
                    actions.append(Timeout(entry.name))
        return actions

    def next_deadline(self) -> int | None:
        earliest = None
        for entry in self.pit.values():
            at = entry.next_retx_at
            if earliest is None or at < earliest:
                earliest = at
        return earliest
