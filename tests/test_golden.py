"""Outputs of fixed runs, byte for byte against committed files: metrics.csv
of four runs, the SHA-256 of both journals of three, the criterion-7 sweep.csv,
the kpi.csv of `twinnav kpi` and the SHA-256 of latency Monte-Carlo series.

The demo and grid_events metrics files under tests/data were written by the
dense journey-matrix planner, the grid_events journal digests and the sweep
by the engine that scanned every spawned vehicle and ingested one vehicle
reading per call, the grid_rsus files by the engine that built planner rows
on every step and ingested each delivered RSU in its own call, the
grid_incidents files by the engine whose detection and planning steps called
the detectors and the masking law themselves, the KPI files by the sampler
that drew one latency value per `random.Random` call. A change
that alters a route, a float, an RNG draw or the order of bookkeeping or
ingest shows here.
Regenerate them only with a change that states why behaviour moved.
"""

import hashlib
import json
import os

import pytest

from twinnav.cli import main
from twinnav.comms import FlowLatency, FlowStreams, LatencyModel, collect_latency_samples
from twinnav.netgen import generate_grid_network

from conftest import write_json

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
DEMO = os.path.join(os.path.dirname(HERE), "scenarios", "demo.json")


def grid_with_events_doc():
    """6x6 grid, one RSU covering every node, eight timed random events: the
    twin flags and clears events and connected vehicles get re-planned."""
    return {
        "network": generate_grid_network(rows=6, cols=6, n_links=160, seed=11),
        "sim": {"dt_s": 1.0, "t_sim_s": 400.0, "seed": 11},
        "traffic": {"n_vel": 500, "p_user": 0.6},
        "events_random": {"count": 8, "onset_max_s": 250.0, "duration_s": 150.0},
        "sensing": {"rsus": [{"node": 15, "radius_m": 1000.0}]},
    }


def grid_with_rsus_doc():
    """6x6 grid, four overlapping RSUs with lossy delivery (pdr_ssms 0.8) and
    lossy route responses: pins the order and content of the RSU readings
    that reach the twin on each step."""
    return {
        "network": generate_grid_network(rows=6, cols=6, n_links=160, seed=13),
        "sim": {"dt_s": 1.0, "t_sim_s": 400.0, "seed": 13},
        "traffic": {"n_vel": 500, "p_user": 0.6},
        "events_random": {"count": 8, "onset_max_s": 250.0, "duration_s": 150.0},
        "sensing": {"rsus": [{"node": n, "radius_m": 250.0} for n in (8, 11, 26, 29)]},
        "latency": {"pdr_ssms": 0.8, "pdr_info": 0.9},
    }


def grid_with_incidents_doc():
    """6x6 grid, 120 random events of 90 s each, four lossy RSUs and lossy
    route responses: overlapping closures open and close the whole run, many
    searches find no path, and flags rise and clear on stale evidence."""
    return {
        "network": generate_grid_network(rows=6, cols=6, n_links=160, seed=17),
        "sim": {"dt_s": 1.0, "t_sim_s": 400.0, "seed": 17},
        "traffic": {"n_vel": 500, "p_user": 0.6},
        "events_random": {"count": 120, "onset_max_s": 300.0, "duration_s": 90.0},
        "sensing": {"rsus": [{"node": n, "radius_m": 300.0} for n in (8, 11, 26, 29)]},
        "latency": {"pdr_ssms": 0.85, "pdr_info": 0.9},
    }


GRID_DOCS = {"grid_events": grid_with_events_doc, "grid_rsus": grid_with_rsus_doc,
             "grid_incidents": grid_with_incidents_doc}


@pytest.mark.parametrize("name", ["demo", "grid_events", "grid_rsus"])
def test_metrics_csv_matches_golden(tmp_path, capsys, name):
    if name == "demo":
        scenario = DEMO
    else:
        scenario = write_json(tmp_path / "scenario.json", GRID_DOCS[name]())
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
    with open(os.path.join(DATA, f"{name}_metrics.csv"), "rb") as fh:
        assert (out / "metrics.csv").read_bytes() == fh.read()


def criterion7_doc():
    """The criterion-7 scenario of tests/test_acceptance.py."""
    return {
        "network": generate_grid_network(seed=3, n_links=504),
        "sim": {"dt_s": 1.0, "t_sim_s": 600.0, "seed": 42},
        "traffic": {"n_vel": 300, "p_user": 0.167},
        "events_random": {"count": 5, "duration_s": 250.0},
        "sensing": {"rsus": [{"node": 45, "radius_m": 2000.0}]},
    }


def journal_digests(tmp_path, name):
    """The SHA-256 of both journals of the GRID_DOCS[name] run. Observers
    change no output: its metrics.csv equals the golden of the run without
    journals."""
    scenario = write_json(tmp_path / "scenario.json", GRID_DOCS[name]())
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out", str(out),
                 "--twin-journal", "--routes-journal"]) == 0
    with open(os.path.join(DATA, f"{name}_metrics.csv"), "rb") as fh:
        assert (out / "metrics.csv").read_bytes() == fh.read()
    return {
        journal: hashlib.sha256((out / journal).read_bytes()).hexdigest()
        for journal in ("twin_journal.jsonl", "routes_journal.jsonl")
    }


def golden_digests(name):
    with open(os.path.join(DATA, f"{name}_journals.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_journals_match_golden_digests(tmp_path, capsys):
    assert journal_digests(tmp_path, "grid_events") == golden_digests("grid_events")


def test_multi_rsu_journals_match_golden_digests(tmp_path, capsys):
    assert journal_digests(tmp_path, "grid_rsus") == golden_digests("grid_rsus")


def test_heavy_incident_journals_match_golden_digests(tmp_path, capsys):
    """Its metrics.csv is checked here too, in the same run."""
    assert journal_digests(tmp_path, "grid_incidents") == golden_digests("grid_incidents")


def test_criterion7_sweep_csv_matches_golden(tmp_path, capsys):
    scenario = write_json(tmp_path / "scenario.json", criterion7_doc())
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", scenario, "--param", "events",
                 "--values", "0,3", "--seeds", "2", "--out", str(out)]) == 0
    with open(os.path.join(DATA, "criterion7_sweep.csv"), "rb") as fh:
        assert (out / "sweep.csv").read_bytes() == fh.read()


def test_kpi_csv_matches_golden(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["kpi", "--scenario", DEMO, "--samples", "20000",
                 "--out", str(out)]) == 0
    with open(os.path.join(DATA, "demo_kpi.csv"), "rb") as fh:
        assert (out / "kpi.csv").read_bytes() == fh.read()


def mixed_latency_model():
    """Two triangular flows and one pinned flow among uniform ones."""
    return (LatencyModel()
            .with_flow("v2c", FlowLatency(20.16, 42.13, dist="triangular", mean_ms=28.0))
            .with_flow("cloud_plan", FlowLatency(173.27, 201.07, dist="triangular",
                                                 mean_ms=190.0))
            .with_flow("route_load", FlowLatency(500.97, 500.97)))


# (model, seed, sample count); neither count is a multiple of comms.SAMPLE_BLOCK.
LATENCY_CASES = {
    "default": (LatencyModel, 7, 5000),
    "mixed": (mixed_latency_model, "abc", 3001),
}


@pytest.mark.parametrize("name", sorted(LATENCY_CASES))
def test_latency_series_match_golden_digests(name):
    make_model, seed, n = LATENCY_CASES[name]
    samples = collect_latency_samples(make_model(), FlowStreams(seed), n)
    digests = {key: hashlib.sha256(repr(series.tolist()).encode()).hexdigest()
               for key, series in samples.items()}
    with open(os.path.join(DATA, "latency_series.json"), encoding="utf-8") as fh:
        assert digests == json.load(fh)[name]
