"""Minimal NDN-style forwarder: PIT with aggregation, LRU content store, FIB.

The forwarder mutates its own tables and returns explicit action lists; the
surrounding node decides how to execute them (transmit frames, hand packets to
the local update agent). Hooks decouple it from the agent:

* ``local_lookup(name)``  -- serve from flash / chunk buffer / repository
* ``deny(interest)``      -- cascading-mode chunk denial
* ``implicit(interest)``  -- register the local agent on a forwarded manifest
* ``divert(data)``        -- should unsolicited/in-transit chunk Data be
                             diverted into the local chunk buffer

All timestamps are integer microseconds of simulated time.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

from .naming import CHUNK, MANIFEST, FirmwareName
from .packets import Data, Interest, Nack

RETX_INTERVAL_US = 2_000_000
RETX_BUDGET = 3


# ---------------------------------------------------------------------------
# actions
#
# An action lives only from the forwarder's return to the node's execution of
# it, so the classes are slotted but not frozen: a frozen dataclass costs
# about twice as much to build.


@dataclass(slots=True)
class ServeData:
    face: int
    data: Data


@dataclass(slots=True)
class ServeNack:
    face: int
    nack: Nack


@dataclass(slots=True)
class Aggregate:
    name: FirmwareName


@dataclass(slots=True)
class Forward:
    face: int
    interest: Interest


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
class ForwardDownstream:
    faces: tuple[int, ...]
    packet: Data | Nack


@dataclass(slots=True)
class CacheInsert:
    name: FirmwareName
    evicted: FirmwareName | None


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
    ServeData | ServeNack | Aggregate | Forward | Drop | DenyCascading
    | DeliverLocal | ForwardDownstream | CacheInsert | DivertToBuffer
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
    upstream_face: int | None = None
    lifetime_ms: int = 8000

    def add_downstream(self, face: int) -> None:
        if face not in self.downstream_faces:
            self.downstream_faces.append(face)


class Pit:
    """Pending Interest Table keyed by exact name."""

    def __init__(self, capacity: int = 16):
        self.capacity = capacity
        self.entries: dict[FirmwareName, PitEntry] = {}

    def find(self, name: FirmwareName) -> PitEntry | None:
        return self.entries.get(name)

    def insert(self, entry: PitEntry) -> bool:
        if len(self.entries) >= self.capacity:
            return False
        self.entries[entry.name] = entry
        return True

    def pop(self, name: FirmwareName) -> PitEntry | None:
        return self.entries.pop(name, None)

    def __len__(self) -> int:
        return len(self.entries)


class _CsEntry:
    __slots__ = ("data", "arrival", "last_use")

    def __init__(self, data: Data, now: int):
        self.data = data
        self.arrival = now
        self.last_use = now


class ContentStore:
    """Fixed-capacity cache with least-recently-used replacement."""

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[FirmwareName, _CsEntry] = OrderedDict()

    def lookup(self, name: FirmwareName, now: int) -> Data | None:
        entry = self._entries.get(name)
        if entry is None:
            return None
        entry.last_use = now
        self._entries.move_to_end(name)
        return entry.data

    def insert(self, data: Data, now: int) -> FirmwareName | None:
        """Insert (or refresh) an entry; returns the evicted name, if any."""
        if self.capacity == 0:
            return None
        existing = self._entries.get(data.name)
        if existing is not None:
            existing.data = data
            existing.last_use = now
            self._entries.move_to_end(data.name)
            return None
        evicted = None
        if len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[data.name] = _CsEntry(data, now)
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[FirmwareName]:
        return list(self._entries)


class Fib:
    """Name-prefix to face table with longest-prefix match.

    The empty prefix acts as a default route and matches every name.
    """

    def __init__(self):
        self._routes: list[tuple[tuple[str, ...], int]] = []

    def add(self, prefix: tuple[str, ...], face: int) -> None:
        self._routes.append((tuple(prefix), face))
        self._routes.sort(key=lambda r: -len(r[0]))

    def lookup(self, name: FirmwareName) -> int | None:
        comps = None  # built only if a non-empty prefix must be compared
        for prefix, face in self._routes:
            if not prefix:
                return face
            if comps is None:
                comps = name.components()
            if comps[: len(prefix)] == prefix:
                return face
        return None


class SeenSet:
    """Bounded FIFO set of (name, nonce) pairs for loop suppression."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._order: deque = deque()
        self._members: set = set()

    def check_and_add(self, name: FirmwareName, nonce: int) -> bool:
        """True if the pair was already seen; records it otherwise."""
        key = (name, nonce)
        if key in self._members:
            return True
        self._members.add(key)
        self._order.append(key)
        if len(self._order) > self.capacity:
            self._members.discard(self._order.popleft())
        return False


def _cacheable(data: Data) -> bool:
    return data.name.kind in (CHUNK, MANIFEST)


class Forwarder:
    """Per-node forwarding state machine."""

    def __init__(
        self,
        *,
        nonce_source: Callable[[], int],
        pit_capacity: int = 16,
        cs_capacity: int = 64,
        seen_capacity: int = 128,
        local_lookup: Callable[[FirmwareName], Data | None] | None = None,
        deny: Callable[[Interest], bool] | None = None,
        implicit: Callable[[Interest], bool] | None = None,
        divert: Callable[[Data], bool] | None = None,
        nack_lookup: Callable[[Interest], Nack | None] | None = None,
    ):
        self.pit = Pit(pit_capacity)
        self.cs = ContentStore(cs_capacity)
        self.fib = Fib()
        self.seen = SeenSet(seen_capacity)
        self._nonce = nonce_source
        self._local_lookup = local_lookup or (lambda name: None)
        self._deny = deny or (lambda interest: False)
        self._implicit = implicit or (lambda interest: False)
        self._divert = divert or (lambda data: False)
        self._nack_lookup = nack_lookup or (lambda interest: None)

    # -- interests ----------------------------------------------------------

    def on_interest(self, face: int, interest: Interest, now: int) -> list[Action]:
        if self.seen.check_and_add(interest.name, interest.nonce):
            return [Drop("loop")]
        # Cascading denial comes before any delivery path: a node that has not
        # completed its own update must not leak same-class chunks downstream,
        # whether from cache, buffer, or an aggregated in-flight request.
        if self._deny(interest):
            return [DenyCascading(interest.name)]
        cached = self.cs.lookup(interest.name, now)
        if cached is not None:
            return [ServeData(face, cached)]
        local = self._local_lookup(interest.name)
        if local is not None:
            return [ServeData(face, local)]
        nack = self._nack_lookup(interest)
        if nack is not None:
            return [ServeNack(face, nack)]
        entry = self.pit.find(interest.name)
        if entry is not None:
            entry.add_downstream(face)
            if self._implicit(interest):
                entry.local_consumer = True
            return [Aggregate(interest.name)]
        upstream = self.fib.lookup(interest.name)
        if upstream is None:
            return [Drop("no-route")]
        entry = PitEntry(
            name=interest.name,
            downstream_faces=[face],
            next_retx_at=now + RETX_INTERVAL_US,
            upstream_face=upstream,
            lifetime_ms=interest.lifetime_ms,
        )
        if self._implicit(interest):
            entry.local_consumer = True
        if not self.pit.insert(entry):
            return [Drop("pit-full")]
        return [Forward(upstream, interest)]

    def on_local_interest(self, interest: Interest, now: int) -> list[Action]:
        """Interest originated by this node's own agent."""
        entry = self.pit.find(interest.name)
        if entry is not None:
            entry.local_consumer = True
            return [Aggregate(interest.name)]
        upstream = self.fib.lookup(interest.name)
        if upstream is None:
            return [Drop("no-route")]
        entry = PitEntry(
            name=interest.name,
            local_consumer=True,
            next_retx_at=now + RETX_INTERVAL_US,
            upstream_face=upstream,
            lifetime_ms=interest.lifetime_ms,
        )
        if not self.pit.insert(entry):
            return [Drop("pit-full")]
        return [Forward(upstream, interest)]

    def cancel_local(self, name: FirmwareName) -> None:
        """Withdraw the local consumer from a pending entry (abort path)."""
        entry = self.pit.find(name)
        if entry is None:
            return
        entry.local_consumer = False
        if not entry.downstream_faces:
            self.pit.pop(name)

    # -- data / nacks -------------------------------------------------------

    def on_data(self, face: int, data: Data, now: int) -> list[Action]:
        entry = self.pit.pop(data.name)
        if entry is None:
            if self._divert(data):
                return [DivertToBuffer(data)]
            return [Drop("unsolicited")]
        actions: list[Action] = []
        if entry.local_consumer:
            actions.append(DeliverLocal(data))
        if entry.downstream_faces:
            actions.append(ForwardDownstream(tuple(entry.downstream_faces), data))
        diverting = not entry.local_consumer and self._divert(data)
        if diverting:
            actions.append(DivertToBuffer(data))
        elif not entry.local_consumer and _cacheable(data):
            # Own-image chunks live in the agent buffer; the CS caches foreign
            # in-transit objects only.
            evicted = self.cs.insert(data, now)
            actions.append(CacheInsert(data.name, evicted))
        return actions

    def on_nack(self, face: int, nack: Nack, now: int) -> list[Action]:
        entry = self.pit.pop(nack.name)
        if entry is None:
            return [Drop("unsolicited-nack")]
        actions: list[Action] = []
        if entry.local_consumer:
            actions.append(DeliverLocal(nack))
        if entry.downstream_faces:
            actions.append(ForwardDownstream(tuple(entry.downstream_faces), nack))
        return actions

    # -- timers -------------------------------------------------------------

    def tick_retransmissions(self, now: int) -> list[Action]:
        """Re-emit or expire pending entries whose deadline has passed."""
        due = [e for e in self.pit.entries.values() if e.next_retx_at <= now]
        if len(due) > 1:  # a single due entry needs no ordering, nor its components
            due.sort(key=lambda e: (e.next_retx_at, e.name.components()))
        actions: list[Action] = []
        for entry in due:
            if entry.retx_budget > 0:
                entry.retx_budget -= 1
                entry.next_retx_at += RETX_INTERVAL_US
                retx = Interest(entry.name, self._nonce(), entry.lifetime_ms)
                actions.append(Retransmit(entry.upstream_face, retx))
            else:
                self.pit.pop(entry.name)
                if entry.local_consumer:
                    actions.append(Timeout(entry.name))
        return actions

    def next_deadline(self) -> int | None:
        earliest = None
        for entry in self.pit.entries.values():
            at = entry.next_retx_at
            if earliest is None or at < earliest:
                earliest = at
        return earliest
