import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fwdist.harness import (
    CSV_HEADER,
    MalformedCsv,
    NoPayloadRoom,
    OverheadModel,
    _parse_csv,
    load_metrics_csv,
    overhead_report,
    progress_table,
    rate_table,
    retx_blocks,
    run_scenario,
    sweep,
)
from fwdist.cli import fwsim_main
from fwdist.scenario import ScenarioInvalid

CHAIN = {'nodes': [{'id': 'gw', 'parent': None}, {'id': 'n1', 'parent': 'gw'},
                   {'id': 'n2', 'parent': 'n1'}, {'id': 'n3', 'parent': 'n2'}]}


def chain_raw(**overrides):
    raw = {'strategy': 'concurrent', 'image_size': 640, 'chunk_size': 32,
           'seed': 7, 'duration_s': 900, 'topology': CHAIN}
    raw.update(overrides)
    return raw


def write_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(chain_raw(**overrides)))
    return path


# -- overhead calculator ----------------------------------------------------------------

def test_overhead_uncompressed_capacity_9():
    model = OverheadModel(mtu=128, name_bytes=16, structural_bytes=16,
                          link_header_bytes=23, signature_bytes=64)
    assert model.payload_capacity() == 9


def test_overhead_compressed_capacity_35():
    model = OverheadModel(compression_enabled=True)
    assert model.payload_capacity() == 35


def test_overhead_36kib_firmware():
    report = overhead_report(OverheadModel(), 36 * 1024)
    assert report == {"payload_capacity": 9, "chunk_count": 4096,
                      "signature_overhead_bytes": 262144}


def test_overhead_144kib_firmware():
    report = overhead_report(OverheadModel(), 144 * 1024)
    assert report == {"payload_capacity": 9, "chunk_count": 16384,
                      "signature_overhead_bytes": 1048576}


def test_overhead_no_payload_room():
    with pytest.raises(NoPayloadRoom):
        overhead_report(OverheadModel(mtu=100), 1024)


# -- run_scenario -----------------------------------------------------------------------

def test_run_scenario_emits_csv_and_summary(tmp_path):
    path = write_scenario(tmp_path)
    result, summary = run_scenario(path, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "sim_time_us,node,event,chunk_id,detail"
    assert summary["completions"] == 3
    saved = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert saved["completions"] == 3
    assert saved["nodes"]["n3"]["install_time_us"] == result.install_time("n3")


def test_run_scenario_duration_zero(tmp_path):
    path = write_scenario(tmp_path, duration_s=0)
    result, summary = run_scenario(path, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines == ["sim_time_us,node,event,chunk_id,detail"]
    assert summary["completions"] == 0


def test_run_scenario_rank_correlated_completions(tmp_path):
    path = write_scenario(tmp_path, seed=3)
    result, _ = run_scenario(path)
    assert result.install_time("n1") < result.install_time("n3")


def test_run_scenario_invalid_strategy(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(chain_raw(strategy="warp")))
    with pytest.raises(ScenarioInvalid) as err:
        run_scenario(path)
    assert err.value.fieldname == "strategy"


def test_seed_override(tmp_path):
    path = write_scenario(tmp_path)
    r1, _ = run_scenario(path, seed=11)
    r2, _ = run_scenario(path, seed=11)
    r3, _ = run_scenario(path, seed=12)
    assert r1.records == r2.records
    assert r1.records != r3.records


# -- sweep --------------------------------------------------------------------------------

def test_sweep_row_count_and_order():
    table = sweep(chain_raw(), "chunk_count", [10, 20], [1, 2])
    assert [row[:2] for row in table["rows"]] == [(10, 1), (10, 2), (20, 1), (20, 2)]
    assert len(table["medians"]) == 2


def test_degenerate_sweep_matches_run():
    table = sweep(chain_raw(), "chunk_count", [20], [7])
    row = table["rows"][0]
    from fwdist.scenario import scenario_from_dict
    from fwdist.sim import run_simulation
    direct = run_simulation(scenario_from_dict(chain_raw()))
    assert row[2] == direct.completion_time_us(direct.completed_nodes())


def test_sweep_completion_medians_increase_with_chunk_count():
    # isolate the chunk-count effect: no loss, no poll stagger
    base = chain_raw(poll_stagger_s=0, loss={"per_transmission": 0.0, "collision": 0.0})
    table = sweep(base, "chunk_count", [10, 30, 60], [1, 2, 3])
    medians = [m for _, m in table["medians"]]
    assert all(m is not None for m in medians)
    assert medians[0] < medians[1] < medians[2]


def test_sweep_deterministic():
    a = sweep(chain_raw(), "chunk_count", [10, 20], [1, 2])
    b = sweep(chain_raw(), "chunk_count", [10, 20], [1, 2])
    assert a == b


def test_sweep_invalid_axis():
    with pytest.raises(ScenarioInvalid):
        sweep(chain_raw(), "nonsense", [1], [1])


# -- tables --------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csvrun")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(chain_raw(image_size=1280)))
    run_scenario(path, out_dir=tmp / "out")
    return load_metrics_csv(tmp / "out" / "metrics.csv")


def test_csv_timestamps_non_decreasing(run_rows):
    times = [t for t, *_ in run_rows]
    assert times == sorted(times)


def test_install_preceded_by_chunk_count_datarecv(run_rows):
    # 1280 B / 32 B = 40 chunks per node
    for node in ("n1", "n2", "n3"):
        install_at = [t for t, n, ev, _, _ in run_rows if n == node and ev == "InstallComplete"]
        assert len(install_at) == 1
        received = [t for t, n, ev, cid, _ in run_rows
                    if n == node and ev == "DataRecv" and cid is not None and t <= install_at[0]]
        assert len(received) == 40


def test_progress_series_ends_at_chunk_count(run_rows):
    table = progress_table(run_rows)
    finals = {}
    for node, t, cumulative in table:
        finals[node] = cumulative
    assert finals == {"n1": 40, "n2": 40, "n3": 40}


def test_rate_table_partitions_datarecv(run_rows):
    total_recv = sum(1 for _, _, event, cid, _ in run_rows if event == "DataRecv" and cid is not None)
    table = rate_table(run_rows)
    assert sum(count for _, _, count in table) == total_recv


def test_retx_blocks_shape():
    # synthetic rows covering 4000 chunks: 40 blocks per node per layer
    rows = [(1, "n7", "DataRecv", 3999, ""), (2, "n7", "NetRetx", 150, "chunk"),
            (3, "n7", "NetRetx", 151, "chunk"), (4, "n7", "AppRetx", 0, "chunk")]
    table = retx_blocks(rows, block_size=100)
    n7_net = [r for r in table if r[0] == "n7" and r[1] == "net"]
    n7_app = [r for r in table if r[0] == "n7" and r[1] == "app"]
    assert len(n7_net) == 40 and len(n7_app) == 40
    assert [r for r in n7_net if r[2] == 100][0][3] == 2
    assert [r for r in n7_app if r[2] == 0][0][3] == 1


def test_parse_csv_rejects_bad_header():
    with pytest.raises(MalformedCsv):
        _parse_csv(["wrong,header", "1,n1,DataRecv,0,"])


def test_parse_csv_rejects_short_rows():
    with pytest.raises(MalformedCsv):
        _parse_csv(["sim_time_us,node,event,chunk_id,detail", "1,n1,DataRecv"])


csv_fields = st.text(alphabet=st.sampled_from("0123456789-+_ ,aé\r\t"), max_size=5)
csv_rows = st.one_of(
    st.tuples(st.integers(-5, 10**6), csv_fields, csv_fields, st.none() | st.integers(-3, 500),
              csv_fields).map(lambda r: ",".join("" if v is None else str(v) for v in r)),
    st.lists(csv_fields, max_size=6).map(",".join),
    st.text(max_size=12),
)


@settings(max_examples=300)
@given(header=st.sampled_from([CSV_HEADER, CSV_HEADER + ",x", ""]), rows=st.lists(csv_rows, max_size=5))
def test_parse_csv_gives_rows_or_malformed_csv(header, rows):
    text = "\n".join([header, *rows]) + "\n"
    try:
        parsed = _parse_csv(io.StringIO(text, newline=None))  # the line splitting of open()
    except MalformedCsv:
        return
    assert header == CSV_HEADER
    for t, node, event, chunk_id, detail in parsed:
        assert type(t) is int and isinstance(node, str) and isinstance(event, str)
        assert chunk_id is None or type(chunk_id) is int
        assert isinstance(detail, str) and "\n" not in detail


# -- CLI -------------------------------------------------------------------------------------

def run_cli(*args, **kw):
    cmd = [sys.executable, "-c",
           "import sys; from fwdist.cli import fwsim_main; sys.exit(fwsim_main())"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def test_cli_overhead_reproduces_paper_cases():
    t0 = time.time()
    proc = run_cli("overhead", "--firmware-size", "36864")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["payload_capacity"] == 9
    assert report["signature_overhead_bytes"] == 262144
    proc = run_cli("overhead", "--firmware-size", "147456")
    assert json.loads(proc.stdout)["signature_overhead_bytes"] == 1048576
    proc = run_cli("overhead", "--firmware-size", "36864", "--compressed")
    assert json.loads(proc.stdout)["payload_capacity"] == 35
    assert time.time() - t0 < 10  # subprocess startup dominates; calculator itself is instant


def test_cli_overhead_validation_exit_code():
    proc = run_cli("overhead", "--firmware-size", "1024", "--mtu", "100")
    assert proc.returncode == 2


def test_cli_run_and_tables(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(chain_raw()))
    out = tmp_path / "out"
    proc = run_cli("run", str(scenario), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["completions"] == 3
    proc = run_cli("tables", str(out / "metrics.csv"), "--kind", "progress")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "node,sim_time_us,cumulative_chunks"
    proc = run_cli("tables", str(out / "metrics.csv"), "--kind", "retx")
    assert proc.returncode == 0


def test_cli_run_invalid_scenario_exit_2(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(chain_raw(strategy="nope")))
    proc = run_cli("run", str(scenario))
    assert proc.returncode == 2
    assert "strategy" in proc.stderr


def test_cli_run_string_boolean_exit_2(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(chain_raw(multiparty="false")))
    proc = run_cli("run", str(scenario), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "multiparty" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, field", [
    ({"node": {"pit_capacity": "16"}}, "node.pit_capacity"),  # was a TypeError traceback, exit 1
    ({"link": {"retries": -1}}, "link.retries"),  # was accepted, exit 0
    ({"attacker": {"edge": [["gw"], "n1"], "mode": "forge_tag"}}, "attacker.edge"),  # TypeError
    ({"outage": {"edge": ["gw", "n1"], "after_install": ["n1"]}}, "outage.after_install"),  # TypeError
    ({"outage": {"edge": ["gw", "n1"], "at_s": "5"}}, "outage.at_s"),  # string times a million
    ({"granularity": {"period_s": 86400.5}}, "granularity.period_s"),  # failed later, on the epoch
    ({"attacker": {"edge": ["gw", "n1"], "mode": "forge_tag", "rate": True}}, "attacker.rate"),  # 1.0
    ({"granularity": {"period_s": True, "offset_s": False}}, "granularity.period_s"),  # accepted
])
def test_cli_run_mistyped_or_out_of_range_block_exit_2(tmp_path, override, field):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(chain_raw(**override)))
    proc = run_cli("run", str(scenario), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert field in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "{scenario}", "--axis", "chunk_count", "--values", "10,x", "--seeds", "1"],
    ["sweep", "{scenario}", "--axis", "chunk_count", "--values", "10", "--seeds", "1,b"],
    ["sweep", "{scenario}", "--axis", "chunk_count", "--values", "-10", "--seeds", "1"],
    ["sweep", "{scenario}", "--axis", "poll_period_s", "--values", "0", "--seeds", "1"],
    ["tables", "{scenario}", "--kind", "retx", "--block-size", "0"],
    ["tables", "{binary}", "--kind", "retx"],
    ["overhead", "--firmware-size", "0"],
    ["run", "{binary}"],
    ["run", "{missing}"],
])
def test_cli_bad_option_values_and_files_exit_2(tmp_path, args):
    files = {"scenario": write_scenario(tmp_path), "binary": tmp_path / "binary",
             "missing": tmp_path / "missing.json"}
    files["binary"].write_bytes(b"\xff\xfe\x00garbage")
    proc = run_cli(*[a.format(**files) for a in args], timeout=60)  # a zero poll period looped
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("fwdist.cli.run_scenario", broken)
    with pytest.raises(ValueError, match="internal fault"):
        fwsim_main(["run", str(write_scenario(tmp_path))])


def test_sweep_rejects_values_the_scenario_would_reject():
    for axis, value in (("chunk_count", 0), ("chunk_count", 1.5), ("image_size", True),
                        ("duration_s", float("nan")), ("poll_stagger_s", -1), ("chunk_size", 2**32)):
        with pytest.raises(ScenarioInvalid) as err:
            sweep(chain_raw(), axis, [value], [1])
        assert err.value.fieldname == axis


def _fwsim_quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fwsim_main(argv)


@settings(max_examples=40, deadline=None)
@given(node_id=st.text(alphabet=st.sampled_from('ab,"\n\r \t;\'\\é\u2028\x85\x0c'), max_size=4))
def test_cli_tables_read_back_every_accepted_node_id(node_id):
    # whatever fwsim run accepts as a node ID, fwsim tables reads back from metrics.csv
    topology = {"nodes": [{"id": "gw", "parent": None}, {"id": node_id, "parent": "gw"}]}
    raw = chain_raw(topology=topology, image_size=64, duration_s=60, poll_stagger_s=0)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "s.json"
        scenario.write_text(json.dumps(raw))
        code = _fwsim_quiet(["run", str(scenario), "--out", tmp])
        rejected = node_id in ("", "gw") or any(c in node_id for c in ',"\n\r')
        assert code == (2 if rejected else 0)
        if rejected:
            return
        for kind in ("progress", "rate", "retx"):
            out = Path(tmp) / f"{kind}.csv"
            assert _fwsim_quiet(["tables", str(Path(tmp) / "metrics.csv"), "--kind", kind,
                                 "--out", str(out)]) == 0
        rows = load_metrics_csv(Path(tmp) / "metrics.csv")
        assert {node for _, node, *_ in rows} == {node_id}
        assert len(progress_table(rows)) == 2  # both chunks of the image


def test_cli_sweep(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(chain_raw()))
    proc = run_cli("sweep", str(scenario), "--axis", "chunk_count",
                   "--values", "10,20", "--seeds", "1,2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("axis_value,seed,")
    assert len([l for l in lines if l and not l.startswith("axis_value")]) == 6  # 4 rows + 2 medians
