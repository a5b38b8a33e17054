import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fwdist.harness import (
    CSV_HEADER,
    SWEEPABLE,
    MalformedCsv,
    NoPayloadRoom,
    OverheadModel,
    iter_csv_rows,
    open_metrics_csv,
    overhead_report,
    progress_table,
    rate_table,
    retx_blocks,
    run_scenario,
    sweep,
)
from fwdist.cli import fwsim_main
from fwdist.scenario import ScenarioInvalid, scenario_from_dict
from fwdist.sim import run_simulation
from fwdist.vendor import InconsistentPublication, Repository
from test_sim import json_values

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
    assert saved["nodes"]["n3"]["install_time_us"] == result.node_stats["n3"]["install_time_us"]


def test_run_scenario_duration_zero(tmp_path):
    path = write_scenario(tmp_path, duration_s=0)
    result, summary = run_scenario(path, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines == ["sim_time_us,node,event,chunk_id,detail"]
    assert summary["completions"] == 0


def test_run_scenario_rank_correlated_completions(tmp_path):
    path = write_scenario(tmp_path, seed=3)
    result, _ = run_scenario(path)
    assert result.node_stats["n1"]["install_time_us"] < result.node_stats["n3"]["install_time_us"]


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


REPLAY = {"attacker": {"edge": ["gw", "n1"], "mode": "replay_stale", "rate": 0.1}}


def test_a_replay_attacker_needs_a_previous_epoch_that_a_name_can_carry():
    with pytest.raises(ScenarioInvalid, match="granularity.period_s") as info:
        scenario_from_dict(chain_raw(epoch=100, **REPLAY))
    assert info.value.fieldname == "epoch"
    with pytest.raises(ScenarioInvalid, match="^epoch:"):  # was a MalformedName from the first run
        sweep(chain_raw(epoch=100, **REPLAY), "seed", [1])
    # the previous epoch may be 0, and other attackers never name it
    day = {"granularity": {"period_s": 86400, "offset_s": 0}, "duration_s": 60}
    assert run_simulation(scenario_from_dict(chain_raw(epoch=86400, **day, **REPLAY))).records
    scenario_from_dict(chain_raw(epoch=100, attacker={**REPLAY["attacker"], "mode": "forge_tag"}))


# -- tables --------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csvrun")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(chain_raw(image_size=1280)))
    run_scenario(path, out_dir=tmp / "out")
    with open_metrics_csv(tmp / "out" / "metrics.csv") as fh:
        return list(iter_csv_rows(fh))


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
        list(iter_csv_rows(["wrong,header", "1,n1,DataRecv,0,"]))


def test_parse_csv_rejects_short_rows():
    with pytest.raises(MalformedCsv):
        list(iter_csv_rows(["sim_time_us,node,event,chunk_id,detail", "1,n1,DataRecv"]))


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
        parsed = list(iter_csv_rows(io.StringIO(text, newline=None)))  # the line splitting of open()
    except MalformedCsv:
        return
    assert header == CSV_HEADER
    for t, node, event, chunk_id, detail in parsed:
        assert type(t) is int and isinstance(node, str) and isinstance(event, str)
        assert chunk_id is None or type(chunk_id) is int
        assert isinstance(detail, str) and "\n" not in detail


TABLE_KINDS = ("progress", "rate", "retx")


def write_synthetic_csv(path, rows: int) -> None:
    """A metrics.csv of ``rows`` rows over 7 nodes, chunk ids below 1000, one row in 100 a DataRecv."""
    events = ("LinkRetx", "NetRetx", "AppRetx", "InterestSent")
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(f"{i * 10},n{i % 7},{'DataRecv' if i % 100 == 0 else events[i % 4]},{i % 1000},chunk\n"
                      for i in range(rows))


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_cli_tables_streams_the_csv(tmp_path, kind):
    # a list of the 80k parsed rows alone takes about 24 MB; one row at a time takes almost nothing
    csv = tmp_path / "metrics.csv"
    write_synthetic_csv(csv, 80_000)
    tracemalloc.start()
    try:
        assert fwsim_main(["tables", str(csv), "--kind", kind, "--out", str(tmp_path / "table.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cli_tables_progress_of_only_datarecv_keeps_its_output_bytes(tmp_path):
    # one output row per input row: a list of the 80k (node, time, total) rows took 14.5 MB
    csv = tmp_path / "metrics.csv"
    with open(csv, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(f"{i * 10},n{i % 7},DataRecv,{i % 1000},\n" for i in range(80_000))
    out = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        assert fwsim_main(["tables", str(csv), "--kind", "progress", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    lines = out.read_text().splitlines()
    assert len(lines) == 80_001 and lines[-1] == f"n3,799990,{len(range(3, 80_000, 7))}"


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_cli_tables_stdout_matches_out_file(tmp_path, capsys, kind):
    csv = tmp_path / "metrics.csv"
    write_synthetic_csv(csv, 2000)
    argv = ["tables", str(csv), "--kind", kind]
    assert fwsim_main(argv + ["--out", str(tmp_path / "table.csv")]) == 0
    written = (tmp_path / "table.csv").read_text()
    assert fwsim_main(argv) == 0  # a stdout with a byte buffer
    assert capsys.readouterr().out == written
    with contextlib.redirect_stdout(io.StringIO()) as text:  # and one without
        assert fwsim_main(argv) == 0
    assert text.getvalue() == written


GOOD_ROWS = "".join(f"{i},n1,DataRecv,{i}," + "\n" for i in range(2000))
CSV_FAULTS = {
    "malformed-last-row": (CSV_HEADER + "\n" + GOOD_ROWS + "x,n1,DataRecv,0,\n").encode(),
    "bad-header": b"sim_time_us,node,event\n1,n1,DataRecv\n",
    "empty": b"",
    "not-utf8": (CSV_HEADER + "\n" + GOOD_ROWS).encode() + b"5,n\xff\xfe1,DataRecv,0,\n",
}


@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_cli_tables_malformed_csv_exit_2_and_write_nothing(tmp_path, capsys, kind, fault):
    csv = tmp_path / "metrics.csv"
    csv.write_bytes(CSV_FAULTS[fault])
    with pytest.raises(MalformedCsv) as err, open_metrics_csv(csv) as fh:
        list(iter_csv_rows(fh))
    out = tmp_path / "table.csv"
    assert fwsim_main(["tables", str(csv), "--kind", kind, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not out.exists()


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


def test_cli_run_and_tables_read_and_write_utf8_under_the_c_locale(tmp_path):
    # under an ASCII locale, run refused this scenario file as not text (exit 2), ended the
    # same scenario with \u escapes in a UnicodeEncodeError traceback after a header-only
    # metrics.csv, and tables refused a metrics.csv written under UTF-8 as "not text"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    topology = {"nodes": [{"id": "gw", "parent": None}, {"id": "n\u00e9", "parent": "gw"}]}
    scenario = tmp_path / "s.json"
    scenario.write_bytes(json.dumps(chain_raw(topology=topology), ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "out"
    proc = run_cli("run", str(scenario), "--out", str(out), env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["nodes"].keys() == {"n\u00e9"}
    assert ",n\u00e9,InstallComplete," in (out / "metrics.csv").read_bytes().decode("utf-8")
    table = tmp_path / "progress.csv"
    proc = run_cli("tables", str(out / "metrics.csv"), "--kind", "progress", "--out", str(table), env=env)
    assert proc.returncode == 0, proc.stderr
    rows = table.read_bytes().decode("utf-8").splitlines()[1:]
    assert rows and {row.split(",")[0] for row in rows} == {"n\u00e9"}


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
    # logged times past 2**63 µs; accepted, exit 0
    ({"duration_s": 1e14, "poll_period_s": 1e13, "poll_stagger_s": 1e13}, "duration_s"),
    # the device class "valve-n/1": exit 2 on a MalformedName at set-up, naming no node
    ({"multiparty": True, "topology": {"nodes": [CHAIN["nodes"][0], {"id": "n/1", "parent": "gw"}]}},
     "topology.nodes[1].id"),
    ({"node": {"seen_capacity": 128}}, "node.seen_capacity"),  # an option no longer kept
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
    ["run", "{scenario.parent}"],  # a directory: IsADirectoryError traceback, exit 1
    ["run", "{scenario}/x"],  # NotADirectoryError
    ["sweep", "{scenario.parent}", "--axis", "seed", "--values", "1"],
    ["tables", "{scenario.parent}", "--kind", "retx"],
    ["tables", "{scenario}/x", "--kind", "retx"],
    ["sweep", "{scenario}", "--axis", "seed", "--values", "1,2", "--seeds", "5"],  # ran at seed 5
    ["sweep", "{scenario}", "--axis", "chunk_count", "--values", "10"],  # no seeds
    # output paths, checked before any work: each ended in a traceback, exit 1
    ["run", "{scenario}", "--out", "{scenario}"],  # FileExistsError after the whole run
    ["sweep", "{scenario}", "--axis", "seed", "--values", "1", "--out", "{scenario.parent}"],
    ["tables", "{metrics}", "--kind", "retx", "--out", "{scenario.parent}"],
    ["tables", "{metrics}", "--kind", "retx", "--out", "{scenario}/x.csv"],
    # an output file of run is a directory: IsADirectoryError after the whole run
    ["run", "{scenario}", "--out", "{csv_is_dir}"],
    ["run", "{scenario}", "--out", "{json_is_dir}"],  # metrics.csv was written first
    # name components the wire format cannot carry: a traceback, exit 1
    ["run", "{surrogate}"],  # vendor "\ud800": UnicodeEncodeError
    ["sweep", "{wide}", "--axis", "seed", "--values", "1"],  # 70,000-byte deployment: struct.error
    # negative sizes were accepted, exit 0
    ["overhead", "--firmware-size", "100", "--sig-bytes", "-64"],  # overhead -64 bytes
    ["overhead", "--firmware-size", "100", "--name-bytes", "-1000"],  # capacity 1025
    ["overhead", "--firmware-size", "100", "--structural-bytes", "-1"],
    ["overhead", "--firmware-size", "100", "--link-bytes", "-1"],
    ["overhead", "--firmware-size", "100", "--mtu", "0"],  # NoPayloadRoom, naming no option
])
def test_cli_bad_option_values_and_files_exit_2(tmp_path, args):
    files = {"scenario": write_scenario(tmp_path), "binary": tmp_path / "binary",
             "missing": tmp_path / "missing.json", "metrics": tmp_path / "metrics.csv",
             "csv_is_dir": tmp_path / "out1", "json_is_dir": tmp_path / "out2",
             "surrogate": tmp_path / "surrogate.json", "wide": tmp_path / "wide.json"}
    files["binary"].write_bytes(b"\xff\xfe\x00garbage")
    files["surrogate"].write_text(json.dumps(chain_raw(vendor="\ud800")))
    files["wide"].write_text(json.dumps(chain_raw(deployment="d" * 70_000)))
    files["metrics"].write_text(CSV_HEADER + "\n1,n1,NetRetx,0,chunk\n")
    (files["csv_is_dir"] / "metrics.csv").mkdir(parents=True)
    (files["json_is_dir"] / "summary.json").mkdir(parents=True)
    proc = run_cli(*[a.format(**files) for a in args], timeout=60)  # a zero poll period looped
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (files["json_is_dir"] / "metrics.csv").exists()
    if "{csv_is_dir}" in args or "{json_is_dir}" in args:
        assert "--out" in proc.stderr
    if args[0] == "overhead":  # the option rejected, last in each row, is named
        assert args[-2] in proc.stderr


def test_cli_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("fwdist.cli.run_scenario", broken)
    with pytest.raises(ValueError, match="internal fault"):
        fwsim_main(["run", str(write_scenario(tmp_path))])


def test_cli_run_ends_with_a_traceback_when_set_up_publishes_inconsistent_data(tmp_path, monkeypatch):
    # no scenario can make set-up publish an inconsistent image, so it is a fault of the program
    def broken(*args, **kwargs):
        raise InconsistentPublication("set-up fault")

    monkeypatch.setattr(Repository, "publish", broken)
    with pytest.raises(InconsistentPublication, match="set-up fault"):
        fwsim_main(["run", str(write_scenario(tmp_path)), "--out", str(tmp_path / "out")])


def test_sweep_rejects_values_the_scenario_would_reject():
    for axis, value in (("chunk_count", 0), ("chunk_count", 1.5), ("image_size", True),
                        ("duration_s", float("nan")), ("duration_s", 1e14), ("poll_stagger_s", -1),
                        ("chunk_size", 2**32)):
        with pytest.raises(ScenarioInvalid) as err:
            sweep(chain_raw(), axis, [value], [1])
        assert err.value.fieldname == axis


def test_sweep_seed_axis_runs_each_value_as_its_seed():
    table = sweep(chain_raw(), "seed", [1, 2, 3])
    for row, seed in zip(table["rows"], (1, 2, 3), strict=True):
        direct = run_simulation(scenario_from_dict(chain_raw(seed=seed)))
        assert row[:3] == (seed, seed, direct.completion_time_us(direct.completed_nodes()))
    assert len({row[2] for row in table["rows"]}) == 3
    for axis, seeds in (("seed", [5]), ("chunk_count", None)):
        with pytest.raises(ScenarioInvalid) as err:
            sweep(chain_raw(), axis, [1], seeds)
        assert err.value.fieldname == "seeds"


def test_cli_sweep_seed_axis(tmp_path):
    proc = run_cli("sweep", str(write_scenario(tmp_path)), "--axis", "seed", "--values", "1,2,3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split(",") for line in lines[1:lines.index("axis_value,median_completion_time_us")]]
    assert [row[:2] for row in rows] == [["1", "1"], ["2", "2"], ["3", "3"]]
    assert len({row[2] for row in rows}) == 3


@pytest.mark.parametrize("axis, values, seeds, field", [
    ("seed", [], None, "values"),
    ("chunk_count", [], [1], "values"),
    ("chunk_count", [2], [], "seeds"),
])
def test_sweep_refuses_an_empty_list_before_any_run(monkeypatch, axis, values, seeds, field):
    # these gave a table of headers only, or a median row that no run stood behind
    monkeypatch.setattr("fwdist.harness.run_simulation", _no_run)
    with pytest.raises(ScenarioInvalid) as err:
        sweep(chain_raw(), axis, values, seeds)
    assert err.value.fieldname == field


@pytest.mark.parametrize("args, field", [
    (["--axis", "seed", "--values", ","], "values"),
    (["--axis", "chunk_count", "--values", "2", "--seeds", ","], "seeds"),
])
def test_cli_sweep_of_an_empty_list_exits_2_and_writes_nothing(tmp_path, capsys, args, field):
    out = tmp_path / "sweep.csv"
    assert fwsim_main(["sweep", str(write_scenario(tmp_path)), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}: ")
    assert fwsim_main(["sweep", str(write_scenario(tmp_path)), *args, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_table_that_stdout_cannot_encode_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # as under LC_ALL=C with neither locale coercion nor UTF-8 mode: stdout is ASCII, strict
    csv = tmp_path / "metrics.csv"
    csv.write_text(CSV_HEADER + "\n1,n\u00e9,DataRecv,0,\n", encoding="utf-8")
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    assert fwsim_main(["tables", str(csv), "--kind", "progress"]) == 2
    sys.stdout.flush()
    assert raw.getvalue() == b""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ascii" in err and "--out" in err
    out = tmp_path / "progress.csv"
    assert fwsim_main(["tables", str(csv), "--kind", "progress", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "node,sim_time_us,cumulative_chunks\nn\u00e9,1,1\n"


def test_cli_unreadable_scenario_exit_2(tmp_path, monkeypatch, capsys):
    # root reads any file whatever its mode, so the refusal is simulated
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    scenario = write_scenario(tmp_path)
    monkeypatch.setattr(Path, "read_text", denied)
    assert fwsim_main(["run", str(scenario)]) == 2
    assert "Permission denied" in capsys.readouterr().err


class _Ran(Exception):
    pass


def _no_run(scenario):
    raise _Ran


@settings(max_examples=200, deadline=None)
@given(axis=st.sampled_from(SWEEPABLE), value=json_values)
def test_sweep_accepts_a_value_exactly_when_the_scenario_does(axis, value):
    if axis == "chunk_count":  # image_size = value x chunk_size; a count is an integer
        field = {"image_size": value * 32 if type(value) is int else value}
    else:
        field = {axis: value}
    try:
        scenario_from_dict(chain_raw(**field))
        accepted = True
    except ScenarioInvalid:
        accepted = False
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fwdist.harness.run_simulation", _no_run)
        try:
            sweep(chain_raw(), axis, [value], None if axis == "seed" else [7])
        except _Ran:
            assert accepted
        except ScenarioInvalid as exc:
            assert not accepted and exc.fieldname == axis
        else:
            pytest.fail("no run and no rejection")


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
        with open_metrics_csv(Path(tmp) / "metrics.csv") as fh:
            rows = list(iter_csv_rows(fh))
        assert {node for _, node, *_ in rows} == {node_id}
        assert len(list(progress_table(rows))) == 2  # both chunks of the image


def test_cli_sweep(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(chain_raw()))
    proc = run_cli("sweep", str(scenario), "--axis", "chunk_count",
                   "--values", "10,20", "--seeds", "1,2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("axis_value,seed,")
    assert len([l for l in lines if l and not l.startswith("axis_value")]) == 6  # 4 rows + 2 medians
