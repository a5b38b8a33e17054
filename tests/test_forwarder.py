import itertools
import random

import pytest

from fwdist.forwarder import (
    Aggregate,
    ContentStore,
    DeliverLocal,
    DenyCascading,
    DivertToBuffer,
    Drop,
    Forward,
    Forwarder,
    Retransmit,
    Timeout,
    UPSTREAM,
)
from fwdist.naming import BaseName
from fwdist.packets import Data, HmacTag, ManifestSignature, Interest, Nack
from fwdist.scenario import NodeParams

BASE = BaseName("d", "v", "c", 100)


def make_forwarder(**hooks):
    counter = itertools.count(1)
    return Forwarder(nonce_source=lambda: next(counter), **hooks)


def chunk_data(i, payload=b"x" * 8):
    return Data(BASE.chunk(i), payload, HmacTag(b"\x00" * 8))


# -- interest pipeline --------------------------------------------------------

def test_forward_via_default_route_creates_pit_entry():
    fwd = make_forwarder()
    actions = fwd.on_interest(1, Interest(BASE.chunk(0), nonce=11), now=0)
    assert actions == [Forward(UPSTREAM, Interest(BASE.chunk(0), nonce=11))]
    entry = fwd.pit.get(BASE.chunk(0))
    assert entry.downstream_faces == [1]
    assert entry.next_retx_at == 2_000_000
    # the one upstream face serves every name
    other = Interest(BaseName("x", "y", "z", 1).manifest(), nonce=12)
    assert fwd.on_interest(2, other, now=0) == [Forward(UPSTREAM, other)]


def test_pit_aggregation_single_upstream():
    fwd = make_forwarder()
    first = fwd.on_interest(1, Interest(BASE.chunk(0), nonce=1), now=0)
    second = fwd.on_interest(2, Interest(BASE.chunk(0), nonce=2), now=10)
    assert isinstance(first[0], Forward)
    assert second == [Aggregate(BASE.chunk(0))]
    entry = fwd.pit.get(BASE.chunk(0))
    assert entry.downstream_faces == [1, 2]


def test_cs_hit_serves_cached_data():
    fwd = make_forwarder()
    d = chunk_data(0)
    fwd.cs.insert(d)
    actions = fwd.on_interest(1, Interest(d.name, nonce=1), now=5)
    assert actions == [Forward(1, d)]


def test_local_lookup_serves():
    d = chunk_data(3)
    fwd = make_forwarder(local_lookup=lambda name: d if name == d.name else None)
    actions = fwd.on_interest(4, Interest(d.name, nonce=1), now=0)
    assert actions == [Forward(4, d)]


def test_deny_cascading_wins_over_cache_and_aggregation():
    # A mid-update cascading node must not leak same-class chunks from any
    # delivery path, so the denial check precedes CS, local, and PIT hits.
    d = chunk_data(0)
    fwd = make_forwarder(deny=lambda interest: True)
    fwd.cs.insert(d)
    actions = fwd.on_interest(1, Interest(d.name, nonce=1), now=1)
    assert actions == [DenyCascading(d.name)]
    assert fwd.pit.get(d.name) is None  # no state


def test_pit_capacity_drops_overflow():
    fwd = make_forwarder(node=NodeParams(pit_capacity=2))
    fwd.on_interest(1, Interest(BASE.chunk(0), nonce=1), now=0)
    fwd.on_interest(1, Interest(BASE.chunk(1), nonce=2), now=0)
    actions = fwd.on_interest(1, Interest(BASE.chunk(2), nonce=3), now=0)
    assert actions == [Drop("pit-full")]


def test_implicit_registration_on_forwarded_manifest():
    fwd = make_forwarder(implicit=lambda interest: True)
    fwd.on_interest(1, Interest(BASE.manifest(), nonce=1), now=0)
    assert fwd.pit.get(BASE.manifest()).local_consumer


# -- data pipeline ---------------------------------------------------------------

def test_data_fans_out_and_caches():
    fwd = make_forwarder()
    fwd.on_interest(1, Interest(BASE.chunk(0), nonce=1), now=0)
    fwd.on_interest(2, Interest(BASE.chunk(0), nonce=2), now=1)
    d = chunk_data(0)
    actions = fwd.on_data(UPSTREAM, d, now=10)
    assert actions == [Forward(1, d), Forward(2, d)]
    assert fwd.pit.get(d.name) is None
    assert fwd.cs.lookup(d.name) == d


def test_data_delivers_to_local_consumer():
    fwd = make_forwarder()
    fwd.on_local_interest(Interest(BASE.chunk(0), nonce=1), now=0)
    d = chunk_data(0)
    actions = fwd.on_data(UPSTREAM, d, now=10)
    assert actions == [DeliverLocal(d)]


def test_unsolicited_data_dropped_without_divert():
    fwd = make_forwarder()
    assert fwd.on_data(UPSTREAM, chunk_data(5), now=0) == [Drop("unsolicited")]


def test_unsolicited_data_diverted_when_wanted():
    d = chunk_data(5)
    fwd = make_forwarder(divert=lambda data: data.name == d.name)
    assert fwd.on_data(UPSTREAM, d, now=0) == [DivertToBuffer(d)]


def test_forwarded_own_image_chunk_diverts_instead_of_caching():
    d = chunk_data(7)
    fwd = make_forwarder(divert=lambda data: True)
    fwd.on_interest(1, Interest(d.name, nonce=1), now=0)
    actions = fwd.on_data(UPSTREAM, d, now=10)
    assert actions == [Forward(1, d), DivertToBuffer(d)]
    assert fwd.cs.lookup(d.name) is None


# -- retransmission timers ---------------------------------------------------------

def test_retx_schedule_2000ms_spacing_then_timeout():
    fwd = make_forwarder()
    fwd.on_local_interest(Interest(BASE.chunk(0), nonce=999), now=0)
    emissions = []
    for t_ms in range(0, 10_001, 1):  # exhaustive 1 ms sweep
        for action in fwd.tick_retransmissions(t_ms * 1000):
            emissions.append((t_ms, action))
    retx = [(t, a) for t, a in emissions if isinstance(a, Retransmit)]
    touts = [(t, a) for t, a in emissions if isinstance(a, Timeout)]
    assert [t for t, _ in retx] == [2000, 4000, 6000]
    assert [t for t, _ in touts] == [8000]
    assert fwd.pit.get(BASE.chunk(0)) is None
    # fresh nonce per retransmission
    nonces = {a.interest.nonce for _, a in retx}
    assert len(nonces) == 3 and 999 not in nonces


def test_data_before_timer_cancels_retx():
    fwd = make_forwarder()
    fwd.on_local_interest(Interest(BASE.chunk(0), nonce=1), now=0)
    fwd.on_data(UPSTREAM, chunk_data(0), now=1_500_000)
    assert fwd.tick_retransmissions(2_000_000) == []


def test_retx_ordering_by_deadline_then_name():
    fwd = make_forwarder()
    # same deadline: order falls back to name components
    fwd.on_interest(1, Interest(BASE.chunk(2), nonce=1), now=0)
    fwd.on_interest(1, Interest(BASE.chunk(1), nonce=2), now=0)
    fwd.on_interest(1, Interest(BASE.chunk(0), nonce=3), now=1000)
    actions = fwd.tick_retransmissions(3_000_000)
    names = [a.interest.name.chunk_id for a in actions if isinstance(a, Retransmit)]
    assert names == [1, 2, 0]


# -- content store vs brute-force reference ------------------------------------------


class ReferenceStore:
    """Naive LRU table: linear scans, explicit recency ordering."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []  # (name, data), oldest-use first

    def lookup(self, name):
        for i, (n, d) in enumerate(self.rows):
            if n == name:
                self.rows.append(self.rows.pop(i))
                return d
        return None

    def insert(self, data):
        for i, (n, _) in enumerate(self.rows):
            if n == data.name:
                self.rows.pop(i)
                self.rows.append((data.name, data))
                return None
        evicted = None
        if len(self.rows) >= self.capacity:
            evicted = self.rows.pop(0)[0]
        self.rows.append((data.name, data))
        return evicted


@pytest.mark.parametrize("capacity", [4, 64])
def test_cs_matches_reference_under_random_ops(capacity):
    rng = random.Random(1234 + capacity)
    cs = ContentStore(capacity)
    ref = ReferenceStore(capacity)
    universe = [chunk_data(i, payload=bytes([i])) for i in range(capacity * 3)]
    for step in range(3000):
        d = rng.choice(universe)
        if rng.random() < 0.5:
            assert cs.insert(d) == ref.insert(d)
        else:
            assert cs.lookup(d.name) == ref.lookup(d.name)
        assert len(cs) == len(ref.rows) <= capacity
    assert cs.names() == [n for n, _ in ref.rows]


def test_cs_capacity_64_eviction_boundary():
    cs = ContentStore(64)
    data = [chunk_data(i, payload=bytes([i % 251])) for i in range(65)]
    for d in data[:64]:
        assert cs.insert(d) is None
    assert len(cs) == 64
    evicted = cs.insert(data[64])
    assert evicted == data[0].name  # least recently used
    assert len(cs) == 64


def test_cs_reinsert_refreshes_recency():
    cs = ContentStore(2)
    a, b, c = chunk_data(0), chunk_data(1), chunk_data(2)
    cs.insert(a)
    cs.insert(b)
    assert cs.insert(a) is None  # refresh, no eviction
    assert cs.insert(c) == b.name  # b is now the LRU


def test_cs_payload_fidelity():
    cs = ContentStore(4)
    payload = bytes(range(32))
    d = chunk_data(0, payload=payload)
    cs.insert(d)
    assert cs.lookup(d.name).payload == payload


# -- packets and actions ------------------------------------------------------------

def test_packets_are_immutable():
    interest = Interest(BASE.chunk(0), 5)
    data = chunk_data(0)
    nack = Nack(BASE.manifest(), "no-data")
    for packet, field in ((interest, "nonce"), (data, "payload"), (data, "auth"), (nack, "reason"),
                          (data.auth, "tag"), (ManifestSignature(b"s"), "signature")):
        with pytest.raises(AttributeError):
            setattr(packet, field, None)


def test_interest_checks_run_in_every_constructor():
    interest = Interest(BASE.chunk(0), 5)
    assert interest._replace(nonce=6) == Interest(BASE.chunk(0), 6)
    for build in (lambda: Interest(BASE.chunk(0), 2**32),
                  lambda: interest._replace(nonce=-1),
                  lambda: Interest._make([BASE.chunk(0), -5])):
        with pytest.raises(ValueError):
            build()


def test_actions_are_slotted_and_compare_within_their_class():
    # actions live only from the forwarder's return to the node's execution,
    # so they are not frozen; they still take no attribute beyond their fields
    interest = Interest(BASE.chunk(0), 5)
    assert Forward(1, interest) == Forward(1, interest)
    assert Forward(1, interest) != Retransmit(1, interest)
    assert Aggregate(interest.name) != Timeout(interest.name)
    for action in (Forward(1, interest), Drop("pit-full"), Timeout(interest.name)):
        assert not hasattr(action, "__dict__")
        with pytest.raises(AttributeError):
            action.extra = 1
