import json
import os

import pytest

from twinnav import cli, sweep
from twinnav.cli import main
from twinnav.comms import MAX_SAMPLES, collect_latency_samples

from conftest import diamond_doc, grid_nodes, write_json

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scenarios")


def scenario_file(tmp_path, **overrides):
    doc = {
        "network": diamond_doc(),
        "sim": {"dt_s": 1.0, "t_sim_s": 90.0, "seed": 7},
        "traffic": {"n_vel": 12, "p_user": 0.5},
        "sensing": {"rsus": [{"node": 1, "radius_m": 10000}]},
        "latency": {"pdr_ssms": 1.0, "pdr_info": 1.0},
    }
    doc.update(overrides)
    return write_json(tmp_path / "scenario.json", doc)


def test_run_writes_metrics_csv(tmp_path, capsys):
    sc = scenario_file(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", sc, "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2
    assert len(lines[0].split(",")) == 9
    assert len(lines[1].split(",")) == 9


def test_run_missing_scenario_exits_2(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 2


def test_run_missing_network_file_exits_2(tmp_path):
    doc = {
        "network_file": "absent.json",
        "sim": {"dt_s": 1.0, "t_sim_s": 10.0},
        "traffic": {"n_vel": 1, "p_user": 0.0},
    }
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc]) == 2


@pytest.mark.parametrize("network_file, shown", [
    ("\u0000x", "\\x00x"),
    ("\u001b[31m", "\\x1b[31m"),
    ("r\u00e9seau.json", "r\u00e9seau.json"),  # printable non-ASCII stays as is
], ids=["NUL", "escape", "non-ASCII"])
def test_error_message_escapes_control_characters(tmp_path, capsys, network_file, shown):
    doc = {
        "network_file": network_file,
        "sim": {"dt_s": 1.0, "t_sim_s": 10.0},
        "traffic": {"n_vel": 1, "p_user": 0.0},
    }
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err[:-1].isprintable(), repr(err)
    assert f"cannot read network file {tmp_path}{os.sep}{shown}: " in err


def test_run_exits_2_when_no_origin_destination_pair_is_reachable(tmp_path, capsys):
    # Two nodes and no link: every spawn draw fails, and the run stops with a
    # ConfigError instead of simulating vehicles that cannot move.
    sc = scenario_file(tmp_path, network={
        "nodes": grid_nodes([(1, 0, 0), (2, 100, 0)]), "links": []}, sensing={})
    out = tmp_path / "out"
    assert main(["run", "--scenario", sc, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: could not draw a reachable origin-destination pair; "
        "the network is too disconnected\n")
    assert not (out / "metrics.csv").exists()


def test_run_exits_2_on_a_misspelled_scenario_key(tmp_path, capsys):
    # A key no block reads is an error, not a run without it: this run would
    # otherwise have no events and seed 0.
    with open(os.path.join(SCENARIOS, "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["network_file"] = os.path.join(SCENARIOS, doc["network_file"])
    doc["events_randm"] = doc.pop("events_random")
    doc["sim"]["sed"] = doc["sim"].pop("seed")
    sc = write_json(tmp_path / "scenario.json", doc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", sc, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {sc}: unknown keys ['events_randm']\n"
    assert not (out / "metrics.csv").exists()


def test_run_seed_determinism_byte_identical(tmp_path):
    sc = scenario_file(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", sc, "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["run", "--scenario", sc, "--seed", "7", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_run_journals(tmp_path):
    sc = scenario_file(
        tmp_path,
        events=[{"kind": "accident", "link": [2, 4], "onset_s": 5}],
    )
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", sc, "--out", str(out),
        "--twin-journal", "--routes-journal",
    ]) == 0
    twin_lines = (out / "twin_journal.jsonl").read_text().splitlines()
    assert len(twin_lines) == 90  # one object per sampling step
    first = json.loads(twin_lines[0])
    assert set(first) == {"step", "time_s", "volumes", "densities",
                          "event_nodes", "event_links"}
    route_lines = (out / "routes_journal.jsonl").read_text().splitlines()
    for line in route_lines:
        doc = json.loads(line)
        assert set(doc) == {"step", "vehicle", "route", "reason"}
        assert doc["reason"] in ("new", "replan")


def test_sweep_single_point_matches_run(tmp_path):
    sc = scenario_file(tmp_path)
    out_run, out_sweep = tmp_path / "r", tmp_path / "s"
    from twinnav.sweep import derive_seed

    seed = derive_seed(7, 0, 0)
    assert main([
        "run", "--scenario", sc, "--seed", str(seed), "--out", str(out_run)
    ]) == 0
    assert main([
        "sweep", "--scenario", sc, "--param", "p_user", "--values", "0.5",
        "--seeds", "1", "--out", str(out_sweep),
    ]) == 0
    run_row = (out_run / "metrics.csv").read_text().splitlines()[1]
    sweep_lines = (out_sweep / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 3  # header + seed row + aggregate row
    assert sweep_lines[1].endswith(run_row)
    assert sweep_lines[1].startswith(f"p_user,0.500000,{seed},")
    assert sweep_lines[2].split(",")[2] == "agg"


def test_sweep_determinism(tmp_path):
    sc = scenario_file(tmp_path)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    args = ["sweep", "--scenario", sc, "--param", "p_user",
            "--values", "0.2,0.8", "--seeds", "2"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


def test_sweep_events_requires_random_block(tmp_path, monkeypatch):
    sc = scenario_file(tmp_path)
    out = tmp_path / "s"
    runs = []
    monkeypatch.setattr(sweep, "run", lambda *a, **kw: runs.append(a))
    assert main([
        "sweep", "--scenario", sc, "--param", "events", "--values", "0,1",
        "--out", str(out),
    ]) == 2
    assert not (out / "sweep.csv").exists()
    assert runs == []  # rejected before the first run


def test_kpi_command(tmp_path, capsys):
    sc = scenario_file(tmp_path)
    out = tmp_path / "kpi"
    assert main([
        "kpi", "--scenario", sc, "--samples", "2000", "--out", str(out)
    ]) == 0
    text = capsys.readouterr().out
    assert "service_total" in text
    csv_lines = (out / "kpi.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,n,min_ms,max_ms,mean_ms,limit,observed,pass"
    assert any(l.startswith("twin_before_service") for l in csv_lines)


def test_kpi_rejects_nonpositive_samples(tmp_path):
    sc = scenario_file(tmp_path)
    assert main(["kpi", "--scenario", sc, "--samples", "0"]) == 2


def test_kpi_rejects_samples_above_the_cap(tmp_path, monkeypatch, capsys):
    sc = scenario_file(tmp_path)
    loads, draws = [], []
    monkeypatch.setattr(cli, "_load", lambda *a: loads.append(a))
    monkeypatch.setattr(cli, "collect_latency_samples", lambda *a: draws.append(a))
    assert main(["kpi", "--scenario", sc, "--samples", str(MAX_SAMPLES + 1)]) == 2
    assert "--samples" in capsys.readouterr().err
    assert loads == [] and draws == []  # rejected before loading anything


def test_kpi_accepts_samples_at_the_cap(tmp_path, monkeypatch):
    sc = scenario_file(tmp_path)
    asked = []

    def few_samples(model, streams, n):
        asked.append(n)
        return collect_latency_samples(model, streams, 100)

    monkeypatch.setattr(cli, "collect_latency_samples", few_samples)
    assert main(["kpi", "--scenario", sc, "--samples", str(MAX_SAMPLES)]) == 0
    assert asked == [MAX_SAMPLES]


def test_kpi_rejects_flows_past_the_cap(tmp_path, capsys):
    """Two flows of 1e308 ms each would sum to an infinite service total."""
    huge = {"min_ms": 1e308, "max_ms": 1e308}
    sc = scenario_file(tmp_path, latency={"route_load": huge, "cloud_plan": huge})
    assert main(["kpi", "--scenario", sc, "--samples", "100"]) == 2
    assert "latency range" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["-3,0", "0,-3"])
def test_sweep_rejects_negative_event_count(tmp_path, monkeypatch, values):
    sc = scenario_file(tmp_path, events_random={"count": 1})
    out = tmp_path / "s"
    runs = []
    monkeypatch.setattr(sweep, "run", lambda *a, **kw: runs.append(a))
    assert main([
        "sweep", "--scenario", sc, "--param", "events", f"--values={values}",
        "--out", str(out),
    ]) == 2
    assert not (out / "sweep.csv").exists()
    assert runs == []  # rejected before the first run


@pytest.mark.parametrize("v_free_kmh", ["0", "-5", "nan", "inf"])
def test_kpi_rejects_bad_v_free(tmp_path, capsys, v_free_kmh):
    sc = scenario_file(tmp_path)
    assert main([
        "kpi", "--scenario", sc, "--samples", "100", f"--v-free-kmh={v_free_kmh}",
    ]) == 2
    assert "--v-free-kmh" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "-1", "65536"])
def test_serve_rejects_a_port_out_of_range(tmp_path, monkeypatch, capsys, port):
    served = []
    monkeypatch.setattr(cli, "_load", lambda *a: served.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--scenario", scenario_file(tmp_path), f"--port={port}"])
    assert exc.value.code == 2
    assert "0..65535" in capsys.readouterr().err
    assert served == []  # rejected while the arguments are parsed


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
