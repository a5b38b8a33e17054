import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fwdist.naming import BaseName, EncodingModel, Granularity
from fwdist.packets import Data, HmacTag, packet_size
from fwdist.scenario import (
    AgentParams,
    LinkParams,
    LossParams,
    NodeParams,
    Scenario,
    ScenarioInvalid,
    scenario_from_dict,
)
from fwdist.sim import MtuExceeded, Simulation, run_simulation
from fwdist.topology import build_paper_topology

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
    assert topo.max_rank() == 7


def test_paper_topology_long_path():
    topo = build_paper_topology()
    assert len(topo.path_to_root("n7")) == 8  # 7 hops to the gateway
    assert [topo.ranks[n] for n in PATH] == list(range(1, 8))


def test_paper_topology_deterministic():
    a, b = build_paper_topology(), build_paper_topology()
    assert a.parents == b.parents


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
    assert sim.counters.get('gw', {}).get('LinkRetx', 0) == 0


def test_dead_link_gives_up_after_four_attempts():
    sc = chain_scenario(loss={'per_transmission': 1.0, 'collision': 0.0})
    sim = Simulation(sc)
    sim.queue = type(sim.queue)()
    deliveries = []
    sim.transmit(sim.nodes['gw'], sim.edges[0], 100, 0, deliveries.append)
    drain(sim)
    assert deliveries == []
    assert sim.counters['gw']['LinkRetx'] == 3  # attempts 2..4 then give up


def test_mtu_boundary():
    sim = Simulation(chain_scenario())
    sim.transmit(sim.nodes['gw'], sim.edges[0], 115, 0, lambda t: None)
    with pytest.raises(MtuExceeded):
        sim.transmit(sim.nodes['gw'], sim.edges[0], 129, 0, lambda t: None)


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
    inst = [result.install_time(n) for n in ('n1', 'n2', 'n3')]
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


# -- medium properties ----------------------------------------------------------------------

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
    topo = sc.topology
    for node in topo.nodes:
        group = set()
        incident = {e.index for e in sim.edges if node in (e.parent, e.child)}
        group |= incident
        for nb in topo.neighbors(node):
            group |= {e.index for e in sim.edges if nb in (e.parent, e.child)}
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
    assert neighbor.index in edge.conflicts and far.index not in edge.conflicts
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
    record, overlap = sim._record_interval, sim._medium_overlap
    answers = []

    def spy_record(edge, start, end):
        history[edge.index].append((start, end))
        record(edge, start, end)

    def spy_overlap(edge, start, end):
        got = overlap(edge, start, end)
        every = [iv for idx in [*edge.conflicts, edge.index] for iv in history[idx]]
        assert got == any(s < end and start < e for s, e in every)
        answers.append(got)
        return got

    sim._record_interval, sim._medium_overlap = spy_record, spy_overlap
    sim.run()
    assert len(answers) > 1000 and 0 < sum(answers) < len(answers)


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
                        node={"pit_capacity": 1, "cs_capacity": 0, "seen_capacity": 0},
                        agent={"app_retx_base_s": 2, "app_retx_jitter_s": 2.0, "digest_retries": 0},
                        name_encoding={"component_overhead": 0, "name_overhead": 0})
    assert (sc.loss.collision, sc.link.retries, sc.node.pit_capacity) == (1, 0, 1)
    assert sc.agent.app_retx_jitter_s == 2.0 and sc.name_encoding == EncodingModel(0, 0)
    assert chain_scenario(loss=None, link=None).link == LinkParams()


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
