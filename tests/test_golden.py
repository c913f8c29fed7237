"""metrics.csv of two fixed runs, byte for byte against committed files.

The files under tests/data were written by the dense journey-matrix planner;
a planner change that alters a route, or a float along the way, shows here.
Regenerate them only with a change that states why behaviour moved.
"""

import os

import pytest

from twinnav.cli import main
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


@pytest.mark.parametrize("name", ["demo", "grid_events"])
def test_metrics_csv_matches_golden(tmp_path, capsys, name):
    if name == "demo":
        scenario = DEMO
    else:
        scenario = write_json(tmp_path / "scenario.json", grid_with_events_doc())
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
    with open(os.path.join(DATA, f"{name}_metrics.csv"), "rb") as fh:
        assert (out / "metrics.csv").read_bytes() == fh.read()
