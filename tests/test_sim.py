import gc
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from equivalence import CASES as EQUIVALENCE_CASES
from fwdist.agent import AWAIT_MANIFEST, FETCHING, UpdateAgent
from fwdist.naming import BaseName, EncodingModel, FirmwareName, Granularity
from fwdist.forwarder import UPSTREAM
from fwdist.packets import Data, HmacTag, Interest, Nack, packet_size
from fwdist.scenario import (
    AgentParams,
    LinkParams,
    LossParams,
    NodeParams,
    Scenario,
    ScenarioInvalid,
    scenario_from_dict,
)
from fwdist.sim import EventLog, Gateway, SimNode, Simulation, run_simulation
from fwdist.topology import Topology, build_paper_topology
from fwdist.vendor import tag_chunk

CHAIN = {'nodes': [{'id': 'gw', 'parent': None}, {'id': 'n1', 'parent': 'gw'},
                   {'id': 'n2', 'parent': 'n1'}, {'id': 'n3', 'parent': 'n2'}]}
PATH = [f"n{i}" for i in range(1, 8)]


def chain_scenario(**overrides):
    raw = {'strategy': 'concurrent', 'image_size': 640, 'chunk_size': 32,
           'seed': 7, 'duration_s': 900, 'topology': CHAIN}
    raw.update(overrides)
    return scenario_from_dict(raw)


# -- topology ---------------------------------------------------------------------

def test_paper_topology_counts():
    topo = build_paper_topology()
    assert len(topo.nodes) == 31  # gateway + 30 devices
    assert max(topo.ranks.values()) == 7


def test_paper_topology_long_path():
    topo = build_paper_topology()
    assert topo.ranks["n7"] == 7  # 7 hops to the gateway
    assert [topo.ranks[n] for n in PATH] == list(range(1, 8))


def test_paper_topology_deterministic():
    a, b = build_paper_topology(), build_paper_topology()
    assert a.parents == b.parents


def test_topology_ranks_children_and_root_come_from_parents_alone():
    topo = Topology({"gw": None, "a": "gw", "b": "a"})
    assert (topo.root, topo.ranks, topo.children) == ("gw", {"gw": 0, "a": 1, "b": 2},
                                                      {"gw": ["a"], "a": ["b"], "b": []})
    with pytest.raises(TypeError):  # were accepted, then overwritten
        Topology({"gw": None}, ranks={"gw": 5})


# -- frame transmission ------------------------------------------------------------


def drain(sim, limit=10_000):
    while len(sim.queue) and limit:
        at, _, fn = sim.queue.pop()
        sim.now = at
        fn(at)
        limit -= 1


def test_lossless_link_delivers_first_attempt():
    sc = chain_scenario(loss={'per_transmission': 0.0, 'collision': 0.0},
                        link={'propagation_us': 500})
    sim = Simulation(sc)
    sim.queue = type(sim.queue)()  # discard setup events
    deliveries = []
    sim.transmit(sim.nodes['gw'], sim.edges[0], 115, 0, deliveries.append)
    drain(sim)
    assert len(deliveries) == 1
    # backoff <= base_slot, airtime 115B at 250 kbps = 3680 us, +prop 500 us
    assert 3680 + 500 <= deliveries[0] <= 1000 + 3680 + 500
    assert sim.records.counters().get('gw', {}).get('LinkRetx', 0) == 0


def test_dead_link_gives_up_after_four_attempts():
    sc = chain_scenario(loss={'per_transmission': 1.0, 'collision': 0.0})
    sim = Simulation(sc)
    sim.queue = type(sim.queue)()
    deliveries = []
    sim.transmit(sim.nodes['gw'], sim.edges[0], 100, 0, deliveries.append)
    drain(sim)
    assert deliveries == []
    assert sim.records.counters()['gw']['LinkRetx'] == 3  # attempts 2..4 then give up


def test_experiment_packet_sizes():
    # 45-byte name + 7 structural + 32 payload + 8 tag = 92; +23 link header = 115
    name = BaseName("oilrig", "acme", "valve", 1632261600).chunk(0)
    data = Data(name, b"\x00" * 32, HmacTag(b"\x00" * 8))
    assert packet_size(data) == 92
    sc = chain_scenario()
    assert packet_size(data, sc.name_encoding) + sc.link.link_header_bytes == 115


def test_oversize_packets_fragment_instead_of_failing():
    # manifest Data exceeds one frame; the node-level send fragments it
    sc = chain_scenario(loss={'per_transmission': 0.0, 'collision': 0.0})
    sim = Simulation(sc)
    result = sim.run()
    assert all(s['install_time_us'] is not None for s in result.node_stats.values())


# -- determinism ----------------------------------------------------------------------

def test_equal_seeds_identical_streams():
    a = run_simulation(chain_scenario())
    b = run_simulation(chain_scenario())
    assert a.records == b.records
    assert list(a.csv_lines()) == list(b.csv_lines())


def test_different_seeds_differ():
    a = run_simulation(chain_scenario(seed=1))
    b = run_simulation(chain_scenario(seed=2))
    assert a.records != b.records


def test_rate_zero_attacker_is_transparent():
    plain = run_simulation(chain_scenario())
    noop = run_simulation(chain_scenario(
        attacker={'edge': ['n2', 'n3'], 'mode': 'tamper_payload', 'rate': 0.0}))
    assert plain.records == noop.records


# -- event log --------------------------------------------------------------------------

log_records = st.lists(st.tuples(
    st.integers(0, 2**63 - 1), st.text("ab", min_size=1, max_size=2), st.text("XY", min_size=1, max_size=2),
    st.none() | st.integers(0, 2**32 - 2), st.text("x;", max_size=2)), max_size=30)


def reference_csv_rows(records):
    """metrics.csv rows as rendered from a plain list of record tuples."""
    for at, node, event, chunk_id, detail in records:
        cid = "" if chunk_id is None else str(chunk_id)
        yield f"{at},{node},{event},{cid},{detail}"


def event_log(records):
    log = EventLog()
    for record in records:
        log.append(*record)
    return log


@settings(max_examples=200, deadline=None)
@given(log_records, log_records)
def test_event_log_matches_a_list_of_tuples(a, b):
    for records in (a, b):
        log = event_log(records)
        assert list(log) == records and len(log) == len(records)
        counts = {}
        for _, node, event, _, _ in records:
            counts.setdefault(node, Counter())[event] += 1
        assert log.counters() == counts
        assert list(log.csv_rows()) == list(reference_csv_rows(records))
        assert log == event_log(records)
    assert (event_log(a) == event_log(b)) == (a == b)
    assert (event_log(a) == event_log(a + b)) == (b == [])


def test_run_records_take_at_most_24_bytes_each():
    # a list of 5-tuples took about 120 B per record
    sc = chain_scenario(image_size=24000, duration_s=86400,
                        loss={'per_transmission': 0.7, 'collision': 0.7}, link={'retries': 15})
    tracemalloc.start()
    try:
        sim = Simulation(sc)
        result = sim.run()
        count = len(result.records)
        held = tracemalloc.get_traced_memory()[0]
        result.records = sim.records = sim.log = None
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count >= 20_000
    assert held <= 24 * count


def test_no_name_or_data_outlives_its_run():
    # a module-level cache of full names, or a per-run table of Data that a
    # cache keeps alive, would hold these after the result is dropped
    deployment = "names-outlive-no-run"
    result = run_simulation(chain_scenario(deployment=deployment, multiparty=True))
    assert len(result.completed_nodes()) == 3  # three device classes of 20 chunks each
    del result
    gc.collect()
    names = (o.name if isinstance(o, Data) else o for o in gc.get_objects()
             if isinstance(o, (Data, FirmwareName)))
    assert not any(name.base.deployment == deployment for name in names)


# the benchmark's multiparty workload: 30 device classes of 400 chunks each
MULTIPARTY = {'topology': 'paper', 'strategy': 'concurrent', 'multiparty': True,
              'image_size': 400 * 32, 'chunk_size': 32, 'duration_s': 3600}


def test_set_up_keeps_each_published_image_once_and_no_chunk_object():
    sc = scenario_from_dict(MULTIPARTY)
    sim = Simulation(sc)
    assert len(sim.images) == 30
    for cls, image in sim.images.items():
        assert image is sim.repo.get(BaseName(sc.deployment, sc.vendor, cls, sc.epoch)).image
    result = sim.run()
    assert all(result.images[cls] is image for cls, image in sim.images.items())


def test_set_up_of_thirty_images_of_400_chunks_holds_under_1_8_mb():
    # a Chunk per chunk and a second copy of each image hold 2.49 MB; each image once, 1.13 MB
    sc = scenario_from_dict(MULTIPARTY)
    Simulation(sc)  # imports and caches that outlive a set-up are not counted below
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(sc)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sim.images) == 30
    assert held < 1.8e6


# -- attacker ---------------------------------------------------------------------------

def test_tamper_rate_one_aborts_victim_only():
    sc = chain_scenario(attacker={'edge': ['n2', 'n3'], 'mode': 'tamper_payload', 'rate': 1.0})
    result = run_simulation(sc)
    assert result.node_stats['n3']['aborted']
    fails = [(t, c) for (t, n, e, c, d) in result.records if n == 'n3' and e == 'TagFail']
    assert len(fails) == 3 and {c for _, c in fails} == {0}
    for other in ('n1', 'n2'):
        assert not result.node_stats[other]['aborted']
        assert result.node_stats[other]['install_time_us'] is not None


def test_tamper_on_leaf_uplink_paper_topology():
    sc = scenario_from_dict({'strategy': 'concurrent', 'image_size': 3200, 'chunk_size': 32,
                             'seed': 2, 'duration_s': 1800,
                             'attacker': {'edge': ['n6', 'n7'], 'mode': 'tamper_payload', 'rate': 1.0}})
    result = run_simulation(sc)
    fails = [c for (t, n, e, c, d) in result.records if n == 'n7' and e == 'TagFail']
    assert result.node_stats['n7']['aborted'] and fails == [0, 0, 0]
    others = [n for n in result.node_stats if n != 'n7']
    assert all(not result.node_stats[n]['aborted'] for n in others)
    assert all(result.node_stats[n]['install_time_us'] is not None for n in others)


def test_forge_tag_detected():
    sc = chain_scenario(attacker={'edge': ['n2', 'n3'], 'mode': 'forge_tag', 'rate': 1.0})
    result = run_simulation(sc)
    assert result.node_stats['n3']['aborted']
    assert result.node_stats['n3']['tag_fail'] == 3


def test_replay_stale_counts_as_tag_failures():
    # replayed previous-epoch chunks carry tags bound to the old base name
    sc = chain_scenario(attacker={'edge': ['n2', 'n3'], 'mode': 'replay_stale', 'rate': 1.0})
    result = run_simulation(sc)
    assert result.node_stats['n3']['tag_fail'] == 3
    assert result.node_stats['n3']['aborted']


def test_the_replay_attacker_substitutes_the_same_chunk_of_the_previous_epoch():
    sc = chain_scenario(image_size=650, attacker={'edge': ['n2', 'n3'], 'mode': 'replay_stale', 'rate': 1.0})
    sim = Simulation(sc)
    psk = sim.nodes['n3'].agent.psk
    base = BaseName(sc.deployment, sc.vendor, sc.device_class, sc.epoch)
    previous = base._replace(epoch=sc.epoch - sc.granularity.period)
    for i in range(sc.chunk_count()):  # 20 chunks of 32 bytes and one of 10
        sent = sim.repo.get(base).data(base.chunk(i))
        replayed = sim._maybe_tamper(sent)
        assert replayed.name == sent.name
        assert len(replayed.payload) == len(sent.payload) and replayed.payload != sent.payload
        assert replayed.auth == HmacTag(tag_chunk(previous, i, replayed.payload, psk, sc.trunc_len))


def test_low_rate_tampering_filtered_by_hmac_gate():
    sc = chain_scenario(seed=3,
                        attacker={'edge': ['n2', 'n3'], 'mode': 'tamper_payload', 'rate': 0.05})
    result = run_simulation(sc)
    for node, stats in result.node_stats.items():
        assert stats['installed_bytes'] == result.images[stats['device_class']], node


# -- outages ----------------------------------------------------------------------------

def test_sever_before_any_completion_stalls_without_abort():
    sc = chain_scenario(strategy='cascading', duration_s=120,
                        outage={'edge': ['gw', 'n1'], 'at_s': 0.0})
    result = run_simulation(sc)
    for stats in result.node_stats.values():
        assert stats['install_time_us'] is None
        assert not stats['aborted']  # timeouts only, no irrecoverable abort


def test_sever_leaf_uplink_stalls_only_leaf():
    sc = chain_scenario(outage={'edge': ['n2', 'n3'], 'at_s': 0.0}, duration_s=120)
    result = run_simulation(sc)
    assert result.node_stats['n1']['install_time_us'] is not None
    assert result.node_stats['n2']['install_time_us'] is not None
    assert result.node_stats['n3']['install_time_us'] is None


def test_sever_after_n1_install_cascading_still_completes():
    sc = chain_scenario(strategy='cascading', duration_s=1800,
                        outage={'edge': ['gw', 'n1'], 'after_install': 'n1'})
    result = run_simulation(sc)
    assert all(s['install_time_us'] is not None for s in result.node_stats.values())
    inst = [result.node_stats[n]["install_time_us"] for n in ('n1', 'n2', 'n3')]
    assert inst == sorted(inst)


# -- nacks (feature flag, default off) --------------------------------------------------------

def not_yet_published_scenario(**overrides):
    # the vendor uploads mid-period (unaligned epoch), so pollers target the
    # period boundary, which the repository does not hold
    return chain_scenario(image_size=320, duration_s=90, poll_period_s=60,
                          epoch=1632261660, granularity={'period_s': 300, 'offset_s': 0},
                          **overrides)


def test_unpublished_epoch_nack_when_enabled():
    result = run_simulation(not_yet_published_scenario(nacks_enabled=True))
    nacked = {n for (t, n, e, c, d) in result.records if e == 'PhaseChange' and 'nack:no-data' in d}
    assert nacked == {'n1', 'n2', 'n3'}
    assert all(s['install_time_us'] is None for s in result.node_stats.values())


def test_unpublished_epoch_times_out_when_nacks_disabled():
    result = run_simulation(not_yet_published_scenario())
    assert not any('nack' in d for (t, n, e, c, d) in result.records if e == 'PhaseChange')
    # the request dies by forwarding timeout: jittered manifest retries happen
    assert any(e == 'AppRetx' and d == 'manifest' for (t, n, e, c, d) in result.records)
    assert all(s['install_time_us'] is None for s in result.node_stats.values())


# the repository holds every name these ask for, so no NACK is ever due
PUBLISHED_SHAPES = {
    "chain-tamper": {'attacker': {'edge': ['n2', 'n3'], 'mode': 'tamper_payload', 'rate': 0.3}},
    "multiparty": {'multiparty': True, 'loss': {'per_transmission': 0.3, 'collision': 0.1}},
    "outage": {'outage': {'edge': ['gw', 'n1'], 'after_install': 'n1'}},
}


@settings(max_examples=8, deadline=None)
@given(shape=st.sampled_from(sorted(PUBLISHED_SHAPES)), strategy=st.sampled_from(['concurrent', 'cascading']),
       seed=st.integers(0, 2**32 - 1))
def test_nacks_change_nothing_when_every_requested_name_exists(shape, strategy, seed):
    runs = [list(run_simulation(chain_scenario(seed=seed, strategy=strategy, nacks_enabled=nacks,
                                               **PUBLISHED_SHAPES[shape])).csv_lines())
            for nacks in (False, True)]
    assert sum(",DataRecv," in line for line in runs[0]) >= 20
    assert runs[1] == runs[0]


# -- medium properties ----------------------------------------------------------------------

def interference_groups(sim) -> dict[str, set[int]]:
    """Per node, the edges at it and at its neighbours: airtime on any two edges
    of one group collides."""
    topo = sim.scenario.topology
    at = {n: {e.index for e in sim.edges if n in (e.parent, e.child)} for n in topo.nodes}
    return {n: at[n].union(*(at[nb] for nb in topo.neighbors(n))) for n in topo.nodes}


def colliding_edges(sim) -> dict[int, set[int]]:
    """Per edge, every edge that shares an interference group with it, itself included."""
    groups = interference_groups(sim).values()
    return {e.index: set().union(*(g for g in groups if e.index in g)) for e in sim.edges}


def domain_bits(edge) -> set[int]:
    return {i for i in range(edge.domain.bit_length()) if edge.domain >> i & 1}


@pytest.mark.parametrize("topology", ["paper", "chain-6"])
def test_collision_domain_is_every_edge_sharing_a_group(topology):
    nodes = [{'id': 'gw', 'parent': None}] + [
        {'id': f'n{i}', 'parent': 'gw' if i == 1 else f'n{i - 1}'} for i in range(1, 6)]
    sim = Simulation(chain_scenario(topology="paper" if topology == "paper" else {'nodes': nodes}))
    reference = colliding_edges(sim)
    assert len(reference) == (30 if topology == "paper" else 5)
    for edge in sim.edges:
        assert domain_bits(edge) == reference[edge.index]


@pytest.mark.parametrize("p, retries, c", [(0.3, 1, None), (0.5, 3, None), (0.7, 2, None),
                                           (0.2, 2, 0.5), (0.1, 3, 0.6)],
                         ids=["0.3-1", "0.5-3", "0.7-2", "0.2-2-collided-0.5", "0.1-3-collided-0.6"])
def test_arq_follows_the_loss_model(p, retries, c):
    # Each attempt is lost with probability q, so a frame is lost after ARQ with
    # probability q^(retries+1). On one isolated edge (c None) no attempt collides
    # and q = p. With airtime live on a conflicting edge for the whole test, every
    # attempt collides and q = 1-(1-p)(1-c).
    n = 4000
    sc = chain_scenario(topology={'nodes': CHAIN['nodes'][:2 if c is None else 3]},
                        loss={'per_transmission': p, 'collision': c or 0.0}, link={'retries': retries})
    sim = Simulation(sc)
    sim.queue = type(sim.queue)()  # discard setup events
    gw, edge = sim.nodes['gw'], sim.edges[0]
    q = p
    if c is not None:
        assert domain_bits(edge) == {0, 1}  # n1-n2 shares n1 with gw-n1
        sim._airtime = [(0, 2**62, 1)]  # (start, end, edge index): n1-n2 on air throughout
        q = 1 - (1 - p) * (1 - c)
    deliveries = []
    for i in range(n):
        sim.queue.push(i * 1_000_000, lambda now: sim.transmit(gw, edge, 100, now, deliveries.append))
    drain(sim, limit=10 * n)
    lost = n - len(deliveries)
    q_frame = q ** (retries + 1)
    assert abs(lost - n * q_frame) <= 4.5 * math.sqrt(n * q_frame * (1 - q_frame))
    retx = sim.records.counters()['gw'].get('LinkRetx', 0)
    attempts = n + retx
    assert abs((retx + lost) / attempts - q) <= 4.5 * math.sqrt(q * (1 - q) / attempts)


def test_airtime_union_within_wall_clock():
    # union of busy intervals per interference group cannot exceed 1 s/s
    sc = chain_scenario(image_size=3200)
    sim = Simulation(sc)
    busy: dict[int, list[tuple[int, int]]] = {e.index: [] for e in sim.edges}
    original = sim._record_interval

    def spy(edge, start, end):
        busy[edge.index].append((start, end))
        original(edge, start, end)

    sim._record_interval = spy
    result = sim.run()
    end_time = max(t for t, *_ in result.records)
    for group in interference_groups(sim).values():
        intervals = sorted(i for idx in group for i in busy[idx])
        union = 0
        cur_s, cur_e = None, None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    union += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            union += cur_e - cur_s
        assert union <= end_time + 1_000_000


def test_record_interval_keeps_exactly_the_live_intervals():
    # gw-n1-...-n5: edge 0 (gw-n1) conflicts with edges 1 and 2, not with edge 4
    nodes = [{'id': 'gw', 'parent': None}] + [
        {'id': f'n{i}', 'parent': 'gw' if i == 1 else f'n{i - 1}'} for i in range(1, 6)]
    sim = Simulation(chain_scenario(topology={'nodes': nodes}))
    edge, neighbor, far = sim.edges[0], sim.edges[1], sim.edges[4]
    assert neighbor.index in domain_bits(edge) and far.index not in domain_bits(edge)
    sim._record_interval(edge, 0, 100)
    sim._record_interval(neighbor, 40, 101)
    sim.now = 100
    sim._record_interval(neighbor, 150, 200)
    sim._record_interval(far, 250, 500)
    sim._record_interval(edge, 300, 400)
    # (0, 100) ended at now and is gone; (40, 101) is still on air
    assert sim._airtime == [(40, 101, 1), (150, 200, 1), (250, 500, 4), (300, 400, 0)]
    assert sim._medium_overlap(edge, 100, 101)
    assert not sim._medium_overlap(edge, 101, 150)
    assert sim._medium_overlap(edge, 199, 300)
    # (250, 500) on the far edge overlaps in time but never collides with edge 0
    assert not sim._medium_overlap(edge, 200, 300)
    assert not sim._medium_overlap(edge, 400, 450)
    assert sim._medium_overlap(edge, 399, 450)
    assert sim._medium_overlap(far, 200, 300)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from(['concurrent', 'cascading']))
def test_medium_overlap_matches_brute_force(seed, strategy):
    # paper preset, small image: 30 devices contend for the medium near the gateway
    sim = Simulation(scenario_from_dict({'strategy': strategy, 'image_size': 960,
                                         'chunk_size': 32, 'seed': seed, 'duration_s': 600}))
    history: dict[int, list[tuple[int, int]]] = {e.index: [] for e in sim.edges}
    colliding = colliding_edges(sim)
    record, overlap = sim._record_interval, sim._medium_overlap
    answers = []

    def spy_record(edge, start, end):
        history[edge.index].append((start, end))
        record(edge, start, end)

    def spy_overlap(edge, start, end):
        got = overlap(edge, start, end)
        every = [iv for idx in colliding[edge.index] for iv in history[idx]]
        assert got == any(s < end and start < e for s, e in every)
        answers.append(got)
        return got

    sim._record_interval, sim._medium_overlap = spy_record, spy_overlap
    sim.run()
    assert len(answers) > 1000 and 0 < sum(answers) < len(answers)


# -- node invariants -------------------------------------------------------------------

NODE_SHAPES = {
    "tamper": {'attacker': {'edge': ['n2', 'n3'], 'mode': 'tamper_payload', 'rate': 0.3}},
    "replay": {'attacker': {'edge': ['n1', 'n2'], 'mode': 'replay_stale', 'rate': 0.5}},
    "pit-1-lossy": {'node': {'pit_capacity': 1}, 'link': {'retries': 1},
                    'loss': {'per_transmission': 0.4, 'collision': 0.1}},
    "outage": {'outage': {'edge': ['gw', 'n1'], 'after_install': 'n1'}},
    "multiparty": {'multiparty': True, 'loss': {'per_transmission': 0.3, 'collision': 0.1}},
}


def local_entries_are_awaited(node):
    """Every PIT entry the device's own agent consumes is its awaited manifest or outstanding chunk."""
    agent = node.agent
    awaited = {agent.awaited_manifest}
    if agent.phase == FETCHING and agent.due_at is None:  # a chunk request in flight
        awaited.add(agent.transfer.manifest.base.chunk(agent.cursor))
    stray = [name for name, entry in node.forwarder.pit.items()
             if entry.local_consumer and name not in awaited]
    assert not stray, (node.id, agent.phase, stray)


# the agent calls a node makes; the rule must hold after each, not only after a whole event
AGENT_CALLS = ("wants_implicit", "on_manifest", "on_nack", "on_chunk", "on_timeout",
               "handle_deadlines", "due_poll", "take_request")


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(sorted(NODE_SHAPES)), strategy=st.sampled_from(['concurrent', 'cascading']),
       seed=st.integers(0, 2**32 - 1))
def test_local_pit_entries_are_what_the_agent_awaits(shape, strategy, seed):
    # the agent forgets a name only after the forwarder popped its entry (data,
    # NACK, timeout) or refused to make one, so no entry outlives its request
    node_of = {}
    checks = []

    def checked(method, node_for):
        def run(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            local_entries_are_awaited(node_for(self))
            checks.append(method.__name__)
            return result
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in ("on_frame", "wake"):
            mp.setattr(SimNode, name, checked(getattr(SimNode, name), lambda node: node))
        for name in AGENT_CALLS:
            mp.setattr(UpdateAgent, name, checked(getattr(UpdateAgent, name), node_of.__getitem__))
        sim = Simulation(chain_scenario(seed=seed, strategy=strategy, image_size=1600, duration_s=300,
                                        **NODE_SHAPES[shape]))
        node_of.update((sim.nodes[dev].agent, sim.nodes[dev]) for dev in sim.scenario.topology.devices)
        sim.run()
    assert checks.count("on_frame") > 20 and "take_request" in checks


REARM_SHAPES = ("pit-capacity-1", "nacks", "zero-retries", "no-data", "outage-at", "heavy-loss")


@pytest.mark.parametrize("case", sorted(name for name in EQUIVALENCE_CASES
                                        if name.rsplit("-", 2)[0] in REARM_SHAPES))
def test_a_device_always_has_a_deadline_to_rearm_for(case):
    # the agent has no deadline only while its request is in flight, and that request
    # holds a local PIT entry, whose retransmission deadline the forwarder reports
    rearm = SimNode._rearm
    waiting = []

    def checked(node, now):
        agent = node.agent
        if agent.next_action_at() is None:
            assert agent.phase in (AWAIT_MANIFEST, FETCHING), (node.id, agent.phase)
            awaited = (agent.awaited_manifest if agent.phase == AWAIT_MANIFEST
                       else agent.transfer.manifest.base.chunk(agent.cursor))
            entry = node.forwarder.pit.get(awaited)
            assert entry is not None and entry.local_consumer, (node.id, agent.phase, awaited)
            assert node.forwarder.next_deadline() is not None
            waiting.append(node.id)
        rearm(node, now)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimNode, "_rearm", checked)
        run_simulation(scenario_from_dict(EQUIVALENCE_CASES[case]))
    assert waiting


PAPER_SMALL = {'topology': 'paper', 'image_size': 320, 'duration_s': 600}
INTEREST_SHAPES = {
    "paper-concurrent": lambda seed: chain_scenario(seed=seed, **PAPER_SMALL),
    "paper-cascading": lambda seed: chain_scenario(seed=seed, strategy='cascading', **PAPER_SMALL),
    "multiparty": lambda seed: chain_scenario(seed=seed, multiparty=True, **PAPER_SMALL),
    "replay": lambda seed: chain_scenario(seed=seed, **NODE_SHAPES["replay"]),
    "outage": lambda seed: chain_scenario(seed=seed, **NODE_SHAPES["outage"]),
    "pit-1-half-loss": lambda seed: chain_scenario(seed=seed, node={'pit_capacity': 1},
                                                   loss={'per_transmission': 0.5, 'collision': 0.1}),
    "nacks": lambda seed: not_yet_published_scenario(seed=seed, nacks_enabled=True),
    "no-data": lambda seed: not_yet_published_scenario(seed=seed),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", sorted(INTEREST_SHAPES))
def test_no_node_receives_the_same_interest_twice(monkeypatch, shape, seed):
    # every device forwards on its one uplink, so an Interest cannot come back to a
    # node; this is why the forwarder keeps no (name, nonce) loop check. Interests
    # only go up and Data and Nacks only come down, which is why the gateway is a
    # producer with no forwarder.
    received = Counter()
    arrivals = Counter()  # (receiver's class, packet kind, whether on the uplink)

    def counting(cls):
        on_frame = cls.on_frame

        def counted(self, face, packet, now):
            if isinstance(packet, Interest):
                received[self.id, packet.name, packet.nonce] += 1
            arrivals[cls, type(packet), face == UPSTREAM] += 1
            return on_frame(self, face, packet, now)
        return counted

    for cls in (SimNode, Gateway):
        monkeypatch.setattr(cls, "on_frame", counting(cls))
    run_simulation(INTEREST_SHAPES[shape](seed))
    assert len(received) >= 10
    assert [key for key, times in received.items() if times > 1] == []
    assert {kind for cls, kind, _ in arrivals if cls is Gateway} == {Interest}
    assert {(kind, up) for cls, kind, up in arrivals if cls is SimNode} <= {
        (Interest, False), (Data, True), (Nack, True)}


STAR = {'nodes': [{'id': 'gw', 'parent': None}] + [{'id': f'n{i}', 'parent': 'gw'} for i in (1, 2, 3)]}


def gateway_replies(name, **overrides):
    """What the gateway of a three-device star sends for an Interest in ``name`` on its face 2."""
    sim = Simulation(chain_scenario(topology=STAR, node={'proc_delay_us': 1234}, **overrides))
    sent = []
    sim.send_packet = lambda src, face, packet, t: sent.append((src.id, face, packet, t))
    sim.nodes['gw'].on_frame(2, Interest(name, nonce=1), 5000)
    return sim, sent


def test_gateway_serves_a_published_name_on_the_arriving_face():
    sc = chain_scenario()
    base = BaseName(sc.deployment, sc.vendor, sc.device_class, sc.epoch)
    for name in (base.manifest(), base.chunk(0), base.chunk(sc.chunk_count() - 1)):
        sim, sent = gateway_replies(name)
        assert sent == [('gw', 2, sim.repo.get(base).data(name), 5000 + 1234)]


def unpublished_names():
    sc = chain_scenario()
    base = BaseName(sc.deployment, sc.vendor, sc.device_class, sc.epoch)
    # an epoch that was never published, and a chunk past the published image's end
    return [base._replace(epoch=sc.epoch + 1).manifest(), base.chunk(sc.chunk_count())]


def test_gateway_sends_nothing_for_an_unpublished_name_when_nacks_are_off():
    for name in unpublished_names():
        assert gateway_replies(name)[1] == []


def test_gateway_nacks_an_unpublished_name_when_nacks_are_on():
    for name in unpublished_names():
        _, sent = gateway_replies(name, nacks_enabled=True)
        assert sent == [('gw', 2, Nack(name, "no-data"), 5000 + 1234)]


def test_cascading_reduces_path_link_retransmissions():
    # ordering asserted across a small seed ensemble
    wins = 0
    for seed in range(1, 6):
        conc = run_simulation(chain_scenario(seed=seed, image_size=3200))
        casc = run_simulation(chain_scenario(seed=seed, image_size=3200, strategy='cascading'))
        conc_retx = sum(conc.node_stats[n]['link_retx'] + conc.node_stats[n]['net_retx']
                        for n in ('n1', 'n2', 'n3'))
        casc_retx = sum(casc.node_stats[n]['link_retx'] + casc.node_stats[n]['net_retx']
                        for n in ('n1', 'n2', 'n3'))
        wins += conc_retx >= casc_retx
    assert wins >= 4


# -- scenario validation ----------------------------------------------------------------------

def test_unknown_strategy_names_field():
    with pytest.raises(ScenarioInvalid) as err:
        scenario_from_dict({'strategy': 'sideways', 'image_size': 100})
    assert err.value.fieldname == 'strategy'


def test_unknown_field_rejected():
    with pytest.raises(ScenarioInvalid):
        scenario_from_dict({'strategy': 'concurrent', 'image_size': 100, 'bogus': 1})


def test_attacker_edge_must_exist():
    with pytest.raises(ScenarioInvalid) as err:
        Simulation(chain_scenario(attacker={'edge': ['n1', 'n3'], 'mode': 'forge_tag', 'rate': 1.0}))
    assert err.value.fieldname == 'attacker.edge'


def test_trunc_len_validated():
    with pytest.raises(ScenarioInvalid) as err:
        chain_scenario(trunc_len=12)
    assert err.value.fieldname == 'trunc_len'


@pytest.mark.parametrize("field", ["multiparty", "nacks_enabled"])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None, [], {}])
def test_boolean_fields_accept_only_json_booleans(field, value):
    with pytest.raises(ScenarioInvalid) as err:
        chain_scenario(**{field: value})
    assert err.value.fieldname == field


@pytest.mark.parametrize("field", ["multiparty", "nacks_enabled"])
def test_boolean_fields_parse_json_booleans(field):
    assert getattr(chain_scenario(), field) is False
    assert getattr(chain_scenario(**{field: False}), field) is False
    assert getattr(chain_scenario(**{field: True}), field) is True


BLOCKS = {"loss": LossParams, "link": LinkParams, "node": NodeParams, "agent": AgentParams,
          "name_encoding": EncodingModel}
BLOCK_FIELDS = [(block, name) for block, cls in BLOCKS.items() for name in cls.__dataclass_fields__]


@pytest.mark.parametrize("block, name", BLOCK_FIELDS)
def test_block_fields_reject_wrong_type_or_range(block, name):
    bad = [True, False, "1", None, [], {}, -1, -0.5, float("nan"), float("inf")]
    if isinstance(getattr(BLOCKS[block](), name), int):
        bad.append(2.5)
    for value in bad:
        try:
            chain_scenario(**{block: {name: value}})
        except ScenarioInvalid as exc:
            assert exc.fieldname == f"{block}.{name}", value
        else:
            pytest.fail(f"{block}.{name} accepted {value!r}")


@pytest.mark.parametrize("override, field", [
    ({"node": {"pit_capacity": 0}}, "node.pit_capacity"),
    ({"link": {"bandwidth_bps": 0}}, "link.bandwidth_bps"),
    ({"link": {"mtu_bytes": 23}}, "link.mtu_bytes"),
    ({"loss": {"collision": 1.5}}, "loss.collision"),
    ({"agent": {"app_retx_base_s": 1, "app_retx_jitter_s": 2}}, "agent.app_retx_jitter_s"),
])
def test_block_cross_field_ranges(override, field):
    with pytest.raises(ScenarioInvalid) as err:
        chain_scenario(**override)
    assert err.value.fieldname == field


def test_block_fields_accept_their_types_at_the_bounds():
    sc = chain_scenario(loss={"per_transmission": 0, "collision": 1},
                        link={"retries": 0, "base_slot_us": 0, "link_header_bytes": 0},
                        node={"pit_capacity": 1, "cs_capacity": 0},
                        agent={"app_retx_base_s": 2, "app_retx_jitter_s": 2.0, "digest_retries": 0},
                        name_encoding={"component_overhead": 0, "name_overhead": 0})
    assert (sc.loss.collision, sc.link.retries, sc.node.pit_capacity) == (1, 0, 1)
    assert sc.agent.app_retx_jitter_s == 2.0 and sc.name_encoding == EncodingModel(0, 0)
    assert chain_scenario(loss=None, link=None).link == LinkParams()
    longest = math.nextafter(2**63 // 10**6, 0)  # the largest duration_s accepted
    assert chain_scenario(duration_s=longest).duration_us() < 2**63


ATTACKER = {"edge": ["gw", "n1"], "mode": "forge_tag"}


@pytest.mark.parametrize("override, field", [
    ({"attacker": {**ATTACKER, "edge": ["gw", 1]}}, "attacker.edge"),
    ({"attacker": {**ATTACKER, "rate": False}}, "attacker.rate"),
    ({"attacker": {**ATTACKER, "rate": float("nan")}}, "attacker.rate"),
    ({"attacker": {**ATTACKER, "rte": 0.5}}, "attacker.rte"),
    ({"outage": {"edge": ["gw", "n1"], "at_s": -1}}, "outage.at_s"),
    ({"outage": {"edge": ["gw", "n1"], "at_s": float("inf")}}, "outage.at_s"),
    ({"outage": {"edge": ["gw", "n1"], "at_s": True}}, "outage.at_s"),
    ({"outage": {"edge": ["gw", "n1"], "after_install": "n1", "at": 5}}, "outage.at"),
    ({"granularity": {"offset_s": False}}, "granularity.offset_s"),
    ({"granularity": {"offset_s": 1.5}}, "granularity.offset_s"),
    ({"granularity": {"period_s": 0}}, "granularity.period_s"),
    ({"granularity": {"period_s": 3600, "offset_s": -3600}}, "granularity.offset_s"),
    ({"granularity": {"period": 3600}}, "granularity.period"),
    ({"granularity": None}, "granularity"),
    ({"duration_s": float("inf")}, "duration_s"),
    ({"poll_period_s": float("inf")}, "poll_period_s"),
    ({"epoch": 2**64}, "epoch"),
    ({"chunk_size": 2**32}, "chunk_size"),
    ({"image_size": True}, "image_size"),  # was accepted as a 1-byte image
    ({"duration_s": 10**400}, "duration_s"),  # an integer beyond the float range; was OverflowError
    ({"duration_s": 1e14}, "duration_s"),  # record times past 2**63 µs were accepted
    # name components the manifest and the tag message cannot carry
    ({"vendor": "\ud800"}, "vendor"),  # UnicodeEncodeError at set-up
    ({"deployment": "d" * 70_000}, "deployment"),  # struct.error: a 2-byte length prefix
    ({"device_class": "a/b"}, "device_class"),  # MalformedName at set-up, naming no field
    # a multiparty device's class "valve-a/b": MalformedName at set-up, naming no node
    ({"multiparty": True, "topology": {"nodes": [CHAIN["nodes"][0], {"id": "a/b", "parent": "gw"}]}},
     "topology.nodes[1].id"),
    # was ScenarioInvalid("topology"), naming the block and not the node
    ({"topology": {"nodes": CHAIN["nodes"] + [{"id": "n2", "parent": "gw"}]}}, "topology.nodes[4].id"),
])
def test_attacker_outage_granularity_and_bounds_are_strict(override, field):
    with pytest.raises(ScenarioInvalid) as err:
        chain_scenario(**override)
    assert err.value.fieldname == field


def test_granularity_default_depends_on_whether_the_block_is_present():
    # absent: daily at local midnight, UTC+2; present without offset_s: offset 0
    assert chain_scenario().granularity == Granularity(86400, -7200)
    assert chain_scenario(granularity={}).granularity == Granularity(86400, 0)
    assert chain_scenario(granularity={"period_s": 3600}).granularity == Granularity(3600, 0)
    assert chain_scenario(granularity={"offset_s": -7200}).granularity == Granularity(86400, -7200)


def test_attacker_and_outage_blocks_parse():
    sc = chain_scenario(attacker={**ATTACKER, "rate": 0}, outage={"edge": ["n2", "n1"], "at_s": 0})
    assert (sc.attacker.edge, sc.attacker.rate) == (("gw", "n1"), 0.0)
    assert (sc.outage.edge, sc.outage.at_s, sc.outage.after_install) == (("n2", "n1"), 0, None)
    sc = chain_scenario(outage={"edge": ["gw", "n1"], "after_install": "n1", "at_s": None})
    assert (sc.outage.at_s, sc.outage.after_install) == (None, "n1")


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**65, 2**65), st.floats(), st.text(max_size=3),
              st.sampled_from(["gw", "n1", "n9"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6)
# every field set, so that one mutated field is the only fault in a scenario
FULL_SCENARIO = {
    'strategy': 'cascading', 'image_size': 640, 'chunk_size': 32, 'seed': 7, 'duration_s': 900,
    'deployment': 'd', 'vendor': 'v', 'device_class': 'c', 'epoch': 1632261600,
    'granularity': {'period_s': 86400, 'offset_s': -7200}, 'multiparty': False, 'trunc_len': 8,
    'poll_period_s': 3600, 'poll_stagger_s': 5.0, 'nacks_enabled': False,
    'loss': {'per_transmission': 0.1, 'collision': 0.6}, 'link': {'retries': 3},
    'node': {'pit_capacity': 16}, 'agent': {'manifest_retries': 3}, 'name_encoding': {},
    'attacker': {'edge': ['n1', 'n2'], 'mode': 'forge_tag', 'rate': 0.5},
    'topology': CHAIN,
}
OUTAGES = [{'edge': ['gw', 'n1'], 'at_s': 12.5}, {'edge': ['gw', 'n1'], 'after_install': 'n1'}]


def _paths(raw, prefix=()):
    """Every key path into ``raw``, list items included, leaves and inner nodes alike."""
    items = raw.items() if isinstance(raw, dict) else enumerate(raw) if isinstance(raw, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(raw, path, value):
    """A deep copy of ``raw`` with ``path`` set to ``value``, or removed for the sentinel."""
    raw = json.loads(json.dumps(raw))
    *head, last = path
    holder = raw
    for key in head:
        holder = holder[key]
    if value is not _REMOVE:
        holder[last] = value
    elif isinstance(holder, dict):
        holder.pop(last, None)
    return raw


_REMOVE = object()


@st.composite
def mutated_scenarios(draw):
    raw = {**FULL_SCENARIO, 'outage': draw(st.sampled_from(OUTAGES))}
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(sorted(_paths(raw), key=repr)) | st.tuples(st.text(max_size=2)))
        raw = _mutate(raw, path, draw(st.just(_REMOVE) | json_values))
    return raw


def _finite_number(value, minimum=None):
    return (isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
            and (minimum is None or value >= minimum))


@settings(max_examples=300, deadline=None)
@given(raw=mutated_scenarios())
def test_scenario_from_dict_gives_a_valid_scenario_or_scenario_invalid(raw):
    try:
        sc = scenario_from_dict(raw)
    except ScenarioInvalid:
        return
    assert isinstance(sc, Scenario)
    nodes = set(sc.topology.nodes)
    assert isinstance(sc.duration_us(), int) and sc.chunk_count() > 0
    for value in (sc.duration_s, sc.poll_period_s, sc.poll_stagger_s):
        assert _finite_number(value, 0)
    g = sc.granularity
    assert type(g.period) is int and type(g.offset) is int and abs(g.offset) < g.period
    if sc.attacker is not None:
        assert set(sc.attacker.edge) <= nodes and type(sc.attacker.rate) is float
        assert 0 <= sc.attacker.rate <= 1
    if sc.outage is not None:
        assert set(sc.outage.edge) <= nodes
        assert (sc.outage.at_s is None) != (sc.outage.after_install is None)
        assert sc.outage.at_s is None or _finite_number(sc.outage.at_s, 0)
        assert sc.outage.after_install is None or sc.outage.after_install in nodes


@pytest.mark.parametrize("node_id", ["", "a,b", 'a"b', "a\nb", "a\rb", "\ud800", 5, None])
def test_node_ids_rejected(node_id):
    topology = {"nodes": [{"id": "gw", "parent": None}, {"id": node_id, "parent": "gw"}]}
    with pytest.raises(ScenarioInvalid) as err:
        chain_scenario(topology=topology)
    assert err.value.fieldname == "topology.nodes[1].id"


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), slot=st.integers(0, 5000), retries=st.integers(0, 5))
def test_backoff_draw_equals_randrange(seed, slot, retries):
    # _attempt draws its backoff with randrange's own getrandbits loop; pin that
    # it consumes the same draws and yields the same value at every attempt level
    sim = Simulation(chain_scenario(link={"base_slot_us": slot, "retries": retries}))
    src, edge = sim.nodes["n1"], sim.edges[0]
    starts = []
    sim._record_interval = lambda edge, start, end: starts.append(start)
    for attempt in range(retries + 1):
        sim.rng, twin = random.Random(seed + attempt), random.Random(seed + attempt)
        src.radio_free_at = 0
        sim._attempt(src, edge, 100, attempt, 10, lambda now: None, "frame", None)
        assert starts[-1] == 10 + twin.randrange(0, (1 << attempt) * slot + 1)
        twin.random()  # the loss draw that follows
        assert sim.rng.getstate() == twin.getstate()


def test_scenario_node_and_agent_values_reach_the_components():
    # distinct non-default values, large against a lossless hop's round trip, so a value
    # dropped or wired to the wrong place changes a gap below
    node = {"turnaround_us": 30_000, "flash_write_us": 20_000, "verify_delay_us": 7_000,
            "install_delay_us": 11_000, "pit_capacity": 5, "cs_capacity": 9}
    hop = {"topology": {"nodes": CHAIN["nodes"][:2]}, "loss": {"per_transmission": 0, "collision": 0}}
    sim = Simulation(chain_scenario(**hop, node=node))
    for dev in sim.scenario.topology.devices:
        forwarder = sim.nodes[dev].forwarder
        assert (forwarder.pit_capacity, forwarder.cs.capacity) == (5, 9)
    records = [(t, e, d) for (t, n, e, c, d) in sim.run().records if n == "n1"]
    phase = {d: t for t, e, d in records if e == "PhaseChange"}
    installed = next(t for t, e, d in records if e == "InstallComplete")
    assert phase["VerifyingImage->Installing"] - phase["Fetching->VerifyingImage"] == 7_000
    assert installed - phase["VerifyingImage->Installing"] == 11_000
    recv = [t for t, e, d in records if e == "DataRecv"]
    assert len(recv) == 20 and min(b - a for a, b in zip(recv, recv[1:])) >= 30_000 + 20_000
    # with the uplink down from the start each poll times out within 10 s, and the agent
    # polls again one poll period after the last
    down = chain_scenario(**hop, outage={"edge": ["gw", "n1"], "at_s": 0}, poll_period_s=20,
                          agent={"manifest_retries": 0}, duration_s=90)
    polls = [t for (t, n, e, c, d) in run_simulation(down).records if d.startswith("Idle->AwaitManifest")]
    assert len(polls) == 5 and {b - a for a, b in zip(polls, polls[1:])} == {20_000_000}


def install_span(strategy, seed, chunk_count, **node):
    """n1's install time, from its first record, on one lossless hop with no backoff."""
    sim = run_simulation(chain_scenario(
        strategy=strategy, seed=seed, image_size=32 * chunk_count - 5, node=node,
        topology={"nodes": CHAIN["nodes"][:2]}, link={"base_slot_us": 0},
        loss={"per_transmission": 0, "collision": 0}))
    times = [(t, e) for (t, n, e, c, d) in sim.records if n == "n1"]
    return next(t for t, e in times if e == "InstallComplete") - times[0][0]


@settings(max_examples=25, deadline=None)
@given(strategy=st.sampled_from(["concurrent", "cascading"]), seed=st.integers(0, 2**32 - 1),
       chunk_count=st.integers(1, 40), delta=st.integers(1, 50_000))
def test_device_delays_shift_a_lone_fetch_by_exactly_their_count(strategy, seed, chunk_count, delta):
    # a turnaround precedes every chunk request, a flash write follows every
    # requested chunk but the last, which is followed by verification instead
    span = install_span(strategy, seed, chunk_count)
    turnaround = NodeParams().turnaround_us + delta
    assert install_span(strategy, seed, chunk_count, turnaround_us=turnaround) - span == delta * chunk_count
    assert install_span(strategy, seed, chunk_count, flash_write_us=delta) - span == delta * (chunk_count - 1)
