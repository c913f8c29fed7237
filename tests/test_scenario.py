import copy
import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from twinnav import sweep
from twinnav.cli import main
from twinnav.errors import ConfigError
from twinnav.netgen import generate_grid_network
from twinnav.scenario import EventSpec, load_scenario, scenario_from_dict
from twinnav.sim import ActiveEvent, Engine

from conftest import diamond_doc, write_json


def minimal_doc(**overrides):
    doc = {
        "network": diamond_doc(),
        "sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": 3},
        "traffic": {"n_vel": 5, "p_user": 0.5},
    }
    doc.update(overrides)
    return doc


def test_minimal_scenario_defaults():
    sc = scenario_from_dict(minimal_doc())
    assert sc.sim.n_steps == 60
    assert sc.thresholds.density_threshold == 0.5
    assert sc.thresholds.speed_threshold == 0.5
    assert sc.thresholds.accident_window_s == 10.0
    assert sc.latency.pdr_ssms == 0.9953
    assert sc.latency.pdr_info == 1.0
    assert sc.events == () and sc.events_random is None


def test_scenario_from_file_resolves_network_path(tmp_path):
    net_path = write_json(tmp_path / "net.json", diamond_doc())
    doc = minimal_doc()
    del doc["network"]
    doc["network_file"] = "net.json"
    sc_path = write_json(tmp_path / "scenario.json", doc)
    sc = load_scenario(sc_path)
    assert sc.network.node_count == 4


def test_scenario_missing_network_file(tmp_path):
    doc = minimal_doc()
    del doc["network"]
    doc["network_file"] = "missing.json"
    sc_path = write_json(tmp_path / "scenario.json", doc)
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(sc_path)


@pytest.mark.parametrize(
    "mutate, pattern",
    [
        (lambda d: d.pop("sim"), "sim"),
        (lambda d: d["sim"].update(t_sim_s=60.5), "multiple"),
        (lambda d: d["sim"].update(dt_s=0.0), "dt_s"),
        (lambda d: d["traffic"].update(p_user=1.5), "p_user"),
        (lambda d: d["traffic"].update(n_vel=-1), "n_vel"),
        (lambda d: d.update(events=[], events_random={"count": 1}), "not both"),
        (lambda d: d.update(latency={"warp_drive": {}}), "latency: unknown keys"),
        (lambda d: d.update(thresholds={"speed_threshold": -2}), "thresholds"),
        # Past a cap: a run of any of these would not end in reasonable time.
        pytest.param(lambda d: d["sim"].update(t_sim_s=1e308), "steps",
                     id="t_sim_s 1e308"),
        pytest.param(lambda d: d["sim"].update(dt_s=1e-300), "steps", id="dt_s 1e-300"),
        pytest.param(lambda d: d["sim"].update(dt_s=1e-300, t_sim_s=1e308), "steps",
                     id="infinite step count"),
        pytest.param(lambda d: d["sim"].update(t_sim_s=1_000_001.0), "steps",
                     id="one step past the cap"),
        pytest.param(lambda d: d["traffic"].update(n_vel=10**19), "n_vel",
                     id="n_vel 10**19"),
        pytest.param(lambda d: d["traffic"].update(n_vel=1_000_001), "n_vel",
                     id="one vehicle past the cap"),
        pytest.param(lambda d: d.update(events=[{"kind": "gathering", "node": 2}] * 10_001),
                     "10001 events, more than 10000", id="one event past the cap"),
        # Checked before any RSU item is read: the bad item is never reached.
        pytest.param(lambda d: d.update(sensing={"rsus": [{"node": 2, "radius_m": 1.0}]
                                                 * 10_000 + ["not an RSU"]}),
                     "10001 RSUs, more than 10000", id="one RSU past the cap"),
        pytest.param(lambda d: d["traffic"].update(spawn={"window_frac": 1e-320}),
                     "spawn rate", id="window_frac 1e-320"),
        pytest.param(lambda d: d["traffic"].update(n_vel=300_001, spawn={"window_frac": 0.5}),
                     "spawn rate", id="spawn rate just past the cap"),
        # Random events get the explicit events' ranges.
        pytest.param(lambda d: d.update(events_random={"count": 1, "duration_s": -50}),
                     "duration_s", id="negative events_random duration"),
        pytest.param(lambda d: d.update(events_random={"count": 1, "density": -1}),
                     "density", id="negative events_random density"),
        pytest.param(lambda d: d.update(events=[{"kind": "gathering", "node": 2,
                                                 "density": -1}]),
                     "density", id="negative event density"),
    ],
)
def test_scenario_validation_errors(mutate, pattern):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=pattern):
        scenario_from_dict(doc)


def test_caps_admit_their_limits():
    doc = minimal_doc(events=[{"kind": "gathering", "node": 2}] * 10_000)
    assert len(scenario_from_dict(doc).events) == 10_000
    doc = minimal_doc(sensing={"rsus": [{"node": 2, "radius_m": 1.0}] * 10_000})
    assert len(scenario_from_dict(doc).rsus) == 10_000
    doc = minimal_doc()
    doc["sim"].update(t_sim_s=1_000_000.0)
    doc["traffic"].update(n_vel=1_000_000)
    sc = scenario_from_dict(doc)
    assert sc.sim.n_steps == 1_000_000 and sc.traffic.n_vel == 1_000_000
    # 300000 vehicles over half of 60 steps: 10000 a step.
    doc = minimal_doc()
    doc["traffic"].update(n_vel=300_000, spawn={"window_frac": 0.5})
    assert scenario_from_dict(doc).spawn_rate() == 10_000
    # No step, no spawning; and events of zero length or density load.
    doc = minimal_doc(events_random={"count": 1, "duration_s": 0, "density": 0})
    doc["sim"].update(t_sim_s=1e-12)
    assert scenario_from_dict(doc).spawn_rate() == 0.0


NAN, INF = math.nan, math.inf

# Each sets one scenario number to a value JSON readers accept (NaN, Infinity,
# an integer past float range) but no run can use.
NON_FINITE = {
    "NaN dt_s": lambda d: d["sim"].update(dt_s=NAN),
    "infinite t_sim_s": lambda d: d["sim"].update(t_sim_s=INF),
    "infinite seed": lambda d: d["sim"].update(seed=INF),
    "infinite n_vel": lambda d: d["traffic"].update(n_vel=INF),
    "NaN onset_s": lambda d: d.update(
        events=[{"kind": "gathering", "node": 2, "onset_s": NAN}]),
    "infinite end_s": lambda d: d.update(
        events=[{"kind": "gathering", "node": 2, "end_s": INF}]),
    "NaN event density": lambda d: d.update(
        events=[{"kind": "gathering", "node": 2, "density": NAN}]),
    "infinite events_random duration": lambda d: d.update(
        events_random={"count": 1, "duration_s": INF}),
    "infinite events_random count": lambda d: d.update(
        events_random={"count": INF}),
    "infinite RSU radius": lambda d: d.update(
        sensing={"rsus": [{"node": 1, "radius_m": INF}]}),
    "infinite accident_window_s": lambda d: d.update(
        thresholds={"accident_window_s": INF}),
    "NaN density_threshold": lambda d: d.update(
        thresholds={"density_threshold": NAN}),
    "infinite latency bound": lambda d: d.update(
        latency={"v2c": {"min_ms": 20.0, "max_ms": INF}}),
    "out-of-range pdr_ssms": lambda d: d.update(latency={"pdr_ssms": 10**400}),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_run_exits_2_on_non_finite_scenario_number(tmp_path, capsys, case):
    doc = minimal_doc()
    NON_FINITE[case](doc)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2


def test_run_exits_2_on_a_step_count_past_float_range(tmp_path, capsys):
    """t_sim_s / dt_s is infinite here: the load fails, before any run."""
    doc = minimal_doc()
    doc["sim"].update(dt_s=1e-300, t_sim_s=1e308)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "steps" in capsys.readouterr().err


def test_run_exits_2_on_more_events_than_the_cap(tmp_path, capsys):
    doc = minimal_doc(events=[{"kind": "gathering", "node": 2}] * 10_001)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "more than 10000" in capsys.readouterr().err


def test_run_exits_2_on_more_rsus_than_the_cap(tmp_path, capsys):
    doc = minimal_doc(sensing={"rsus": [{"node": 2, "radius_m": 1.0}] * 10_001})
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "10001 RSUs, more than 10000" in capsys.readouterr().err


# Each sets one number to an integer past float range, which json reads as
# an int; the number rule rejects it, so no handler needs OverflowError.
PAST_FLOAT_RANGE = {
    "RSU radius_m": lambda d: d.update(sensing={"rsus": [{"node": 1, "radius_m": 10**400}]}),
    "event density": lambda d: d.update(
        events=[{"kind": "gathering", "node": 2, "density": 10**400}]),
    "traffic.p_user": lambda d: d["traffic"].update(p_user=10**400),
    "link length_m": lambda d: d["network"]["links"][0].update(length_m=10**400),
    "events_random density": lambda d: d.update(
        events_random={"count": 1, "density": 10**400}),
}


@pytest.mark.parametrize("case", sorted(PAST_FLOAT_RANGE))
def test_run_exits_2_on_an_integer_past_float_range(tmp_path, capsys, case):
    doc = minimal_doc()
    PAST_FLOAT_RANGE[case](doc)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "float range" in capsys.readouterr().err


MISTYPED = {
    "events_random a number": lambda d: d.update(events_random=5),
    "sensing a number": lambda d: d.update(sensing=5),
    "sensing.rsus a number": lambda d: d.update(sensing={"rsus": 5}),
    "thresholds a number": lambda d: d.update(thresholds=5),
    "traffic.spawn a number": lambda d: d["traffic"].update(spawn=5),
    "latency a number": lambda d: d.update(latency=5),
    "event not an object": lambda d: d.update(events=[5]),
    "events_random kind not a string": lambda d: d.update(
        events_random={"count": 2, "kinds": [{}]}),
    "events_random kinds an object": lambda d: d.update(
        events_random={"count": 1, "kinds": {"accident": 0}}),
    "network_file a number": lambda d: network_file_set_to(d, 5),
    "network_file an array": lambda d: network_file_set_to(d, ["a"]),
    "network_file null": lambda d: network_file_set_to(d, None),
    # A string, but no path: open() refuses a NUL byte.
    "network_file with a NUL byte": lambda d: network_file_set_to(d, "\u0000x"),
}


def network_file_set_to(doc, value):
    del doc["network"]
    doc["network_file"] = value


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_run_exits_2_on_mistyped_scenario_block(tmp_path, capsys, case):
    doc = minimal_doc()
    MISTYPED[case](doc)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2


# Each sets one id or count to a JSON value that is not an integer but that
# int() would turn into a valid one (2.9 -> 2, true -> 1, "3" -> 3).
NON_INTEGER = {
    "float event node": lambda d: d.update(events=[{"kind": "gathering", "node": 2.9}]),
    "boolean event node": lambda d: d.update(events=[{"kind": "gathering", "node": True}]),
    "string event node": lambda d: d.update(events=[{"kind": "gathering", "node": "3"}]),
    "float event link": lambda d: d.update(events=[{"kind": "accident", "link": [1.7, 2.2]}]),
    "float RSU node": lambda d: d.update(sensing={"rsus": [{"node": 1.9, "radius_m": 50}]}),
    "float seed": lambda d: d["sim"].update(seed=4.7),
    "float n_vel": lambda d: d["traffic"].update(n_vel=10.9),
    "boolean n_vel": lambda d: d["traffic"].update(n_vel=True),
    "integral float n_vel": lambda d: d["traffic"].update(n_vel=10.0),
    "float events_random count": lambda d: d.update(events_random={"count": 2.5}),
    "float network node id": lambda d: d["network"]["nodes"][0].update(id=1.5),
    "boolean link endpoint": lambda d: d["network"]["links"][0].update({"from": True}),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER))
def test_run_exits_2_on_non_integer_id_or_count(tmp_path, capsys, case):
    doc = minimal_doc()
    NON_INTEGER[case](doc)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "JSON integer" in capsys.readouterr().err


# Each sets one scenario number to a JSON value that is not a number but that
# float() would read as one (true -> 1.0, "0.5" -> 0.5).
NON_NUMBER = {
    "boolean dt_s": lambda d: d["sim"].update(dt_s=True),
    "string p_user": lambda d: d["traffic"].update(p_user="0.5"),
    "string window_frac": lambda d: d["traffic"].update(spawn={"window_frac": "0.5"}),
    "string RSU radius": lambda d: d.update(sensing={"rsus": [{"node": 1, "radius_m": "50"}]}),
    "string latency bound": lambda d: d.update(
        latency={"v2c": {"min_ms": "1", "max_ms": 30.0}}),
    "boolean threshold": lambda d: d.update(thresholds={"speed_threshold": True}),
    "string event onset": lambda d: d.update(
        events=[{"kind": "gathering", "node": 2, "onset_s": "3"}]),
    "boolean events_random duration": lambda d: d.update(
        events_random={"count": 1, "duration_s": True}),
}


@pytest.mark.parametrize("case", sorted(NON_NUMBER))
def test_run_exits_2_on_non_number(tmp_path, capsys, case):
    doc = minimal_doc()
    NON_NUMBER[case](doc)
    sc = write_json(tmp_path / "scenario.json", doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "JSON number" in capsys.readouterr().err


def test_event_location_must_match_kind():
    with pytest.raises(ConfigError, match="node"):
        scenario_from_dict(
            minimal_doc(events=[{"kind": "gathering", "onset_s": 0}])
        )
    with pytest.raises(ConfigError, match="link"):
        scenario_from_dict(
            minimal_doc(events=[{"kind": "accident", "node": 1}])
        )
    with pytest.raises(ConfigError, match="no link"):
        scenario_from_dict(
            minimal_doc(events=[{"kind": "accident", "link": [4, 1]}])
        )
    with pytest.raises(ConfigError, match="unknown node"):
        scenario_from_dict(
            minimal_doc(events=[{"kind": "gathering", "node": 99}])
        )
    with pytest.raises(ConfigError, match="end_s"):
        scenario_from_dict(
            minimal_doc(
                events=[{"kind": "gathering", "node": 1, "onset_s": 10, "end_s": 5}]
            )
        )


def test_events_random_validation():
    sc = scenario_from_dict(
        minimal_doc(events_random={"count": 2, "kinds": ["accident"]})
    )
    assert sc.events_random.count == 2
    with pytest.raises(ConfigError, match="kinds"):
        scenario_from_dict(
            minimal_doc(events_random={"count": 1, "kinds": ["meteor"]})
        )
    with pytest.raises(ConfigError, match="count"):
        scenario_from_dict(minimal_doc(events_random={"count": -2}))


def test_random_events_that_cannot_fit_fail_at_load():
    # The diamond has 5 links and 4 nodes.
    for er in ({"count": 10}, {"count": 6, "kinds": ["accident"]},
               {"count": 5, "kinds": ["gathering"]}):
        with pytest.raises(ConfigError, match="count"):
            scenario_from_dict(minimal_doc(events_random=er))
    sc = scenario_from_dict(minimal_doc(events_random={"count": 1}))
    with pytest.raises(ConfigError, match="count"):
        sc.with_event_count(10)
    # The default window ends at half the 60 s horizon.
    for er in ({"count": 1, "onset_min_s": 10000},
               {"count": 0, "onset_min_s": 20, "onset_max_s": 10}):
        with pytest.raises(ConfigError, match="onset"):
            scenario_from_dict(minimal_doc(events_random=er))


def reference_events(sc):
    """The engine's events built the earlier way, in two steps: random
    accidents become EventSpecs on node pairs, then every spec's pair is
    looked up again as a link index. Same draws, in the same order."""
    net, dt = sc.network, sc.sim.dt_s
    specs = list(sc.events)
    er = sc.events_random
    if er is not None and er.count:
        rng = random.Random(f"{sc.sim.seed}/events")
        kinds = [rng.choice(er.kinds) for _ in range(er.count)]
        for kind, other, room in (("accident", "gathering", net.link_count),
                                  ("gathering", "accident", net.node_count)):
            surplus = kinds.count(kind) - room
            if surplus > 0:
                for k in [k for k, x in enumerate(kinds) if x == kind][-surplus:]:
                    kinds[k] = other
        n_acc = kinds.count("accident")
        n_gat = kinds.count("gathering")
        acc_links = rng.sample(range(net.link_count), n_acc)
        gat_nodes = rng.sample(range(1, net.node_count + 1), n_gat)
        lo, hi = sc.onset_window()
        it_acc, it_gat = iter(acc_links), iter(gat_nodes)
        for kind in kinds:
            onset = rng.uniform(lo, hi)
            end = None if er.duration_s is None else onset + er.duration_s
            if kind == "accident":
                specs.append(EventSpec(kind=kind, link=net.links[next(it_acc)].pair,
                                       onset_s=onset, end_s=end, density=er.density))
            else:
                specs.append(EventSpec(kind=kind, node=next(it_gat), onset_s=onset,
                                       end_s=end, density=er.density))
    t_end = sc.sim.t_sim_s

    def to_step(t):
        return int(round(min(max(t, 0.0), t_end) / dt))

    return [ActiveEvent(kind=spec.kind,
                        link_idx=None if spec.link is None else net.link_index[spec.link],
                        node=spec.node, onset_step=to_step(spec.onset_s),
                        end_step=None if spec.end_s is None else to_step(spec.end_s),
                        density=spec.density)
            for spec in specs]


def test_random_events_that_fit_load_for_every_seed():
    """A count up to links + nodes fits whatever kinds the seed draws: the
    surplus of one kind becomes the other. The events equal the two-step
    reference's, field by field."""
    for count, duration in ((6, None), (9, 15.0)):
        sc = scenario_from_dict(minimal_doc(events_random={
            "count": count, "duration_s": duration, "density": 0.8}))
        for seed in range(20):
            seeded = sc.with_seed(seed)
            events = Engine(seeded).events
            links = [ev.link_idx for ev in events if ev.kind == "accident"]
            nodes = [ev.node for ev in events if ev.kind == "gathering"]
            assert len(events) == count
            assert len(set(links)) == len(links) <= 5
            assert len(set(nodes)) == len(nodes) <= 4
            assert events == reference_events(seeded)


def test_explicit_events_match_the_reference():
    sc = scenario_from_dict(minimal_doc(events=[
        {"kind": "accident", "link": [2, 4], "onset_s": 4.4, "end_s": None},
        {"kind": "gathering", "node": 3, "onset_s": -5, "end_s": 500, "density": 0.9},
        {"kind": "accident", "link": [2, 3], "onset_s": 10.5, "end_s": 20.6},
    ]))
    events = Engine(sc).events
    assert events == reference_events(sc)
    assert [(ev.link_idx, ev.node, ev.onset_step, ev.end_step) for ev in events] == [
        (sc.network.link_index[(2, 4)], None, 4, None),
        (None, 3, 0, 60),
        (sc.network.link_index[(2, 3)], None, 10, 21),
    ]


def test_sweep_rejects_an_event_count_that_cannot_fit_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(sweep, "run", lambda *a, **k: runs.append(a))
    base = scenario_from_dict(minimal_doc(events_random={"count": 1}))
    spec = sweep.SweepSpec(base=base, param="events", values=(0, 5000))
    with pytest.raises(ConfigError, match="count"):
        sweep.run_sweep(spec)
    assert runs == []


def test_sweep_of_the_event_count_needs_events_random_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(sweep, "run", lambda *a, **k: runs.append(a))
    spec = sweep.SweepSpec(base=scenario_from_dict(minimal_doc()), param="events",
                           values=(0, 1))
    with pytest.raises(ConfigError, match="events_random"):
        sweep.run_sweep(spec)
    assert runs == []


def test_rsu_validation_and_coverage():
    doc = minimal_doc(sensing={"rsus": [{"node": 1, "radius_m": 150.0}]})
    sc = scenario_from_dict(doc)
    ((link_idx, node_ids),) = sc.rsu_coverage()
    # Nodes within 150 m of node 1: 1 itself plus 2 and 3 (141.4 m away).
    assert node_ids.tolist() == [1, 2, 3]
    # Links need both endpoints covered.
    assert [sc.network.links[i].pair for i in link_idx] == [(1, 2), (1, 3), (2, 3)]

    with pytest.raises(ConfigError, match="unknown node"):
        scenario_from_dict(minimal_doc(sensing={"rsus": [{"node": 77, "radius_m": 5}]}))
    with pytest.raises(ConfigError, match="radius"):
        scenario_from_dict(minimal_doc(sensing={"rsus": [{"node": 1, "radius_m": 0}]}))


def brute_force_coverage(net_doc, rsu_node, radius_m):
    """Sorted covered link indices and node ids: nodes within radius_m of the
    RSU's node, links whose two endpoints are covered."""
    xy = {n["id"]: (n["x_m"], n["y_m"]) for n in net_doc["nodes"]}
    x0, y0 = xy[rsu_node]
    nodes = sorted(i for i, (x, y) in xy.items() if math.hypot(x - x0, y - y0) <= radius_m)
    links = [k for k, l in enumerate(net_doc["links"])
             if l["from"] in nodes and l["to"] in nodes]
    return links, nodes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rsu_coverage_matches_brute_force(data):
    """Random grids and radii; the last two RSUs sit at one node with a radius
    of exactly another node's distance, which covers it, and one ulp less,
    which does not."""
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 5))
    ortho = rows * (cols - 1) + cols * (rows - 1)
    extra = data.draw(st.integers(0, 2 * (rows - 1) * (cols - 1)))
    net_doc = generate_grid_network(
        rows=rows, cols=cols, spacing_m=data.draw(st.floats(1.0, 250.0)),
        n_links=2 * (ortho + extra), k_max_veh_per_m=1.0,  # a 1 m link holds 1 vehicle
        seed=data.draw(st.integers(0, 10_000)),
    )
    m = rows * cols
    rsus = [{"node": data.draw(st.integers(1, m)), "radius_m": data.draw(st.floats(0.5, 1500.0))}
            for _ in range(data.draw(st.integers(0, 3)))]
    node = data.draw(st.integers(1, m))
    other = data.draw(st.integers(1, m).filter(lambda n: n != node))
    xy = {n["id"]: (n["x_m"], n["y_m"]) for n in net_doc["nodes"]}
    exact = math.hypot(xy[other][0] - xy[node][0], xy[other][1] - xy[node][1])
    rsus += [{"node": node, "radius_m": exact},
             {"node": node, "radius_m": math.nextafter(exact, 0.0)}]
    sc = scenario_from_dict(minimal_doc(network=net_doc, sensing={"rsus": rsus}))

    coverage = sc.rsu_coverage()
    assert len(coverage) == len(rsus)
    for rsu, (link_idx, node_ids) in zip(rsus, coverage):
        links, nodes = brute_force_coverage(net_doc, rsu["node"], rsu["radius_m"])
        assert link_idx.tolist() == links
        assert node_ids.tolist() == nodes
    assert other in coverage[-2][1]
    assert other not in coverage[-1][1]


# Each turns the text of a scenario or network file, whose one number is the
# placeholder "BIG", into bytes that the JSON decoder rejects with an error
# other than a syntax error: an integer literal past CPython's 4300-digit
# limit (and past float range where no limit applies), bytes that are not
# UTF-8, and nesting past the recursion limit.
UNDECODABLE = {
    "5000-digit integer": lambda text: text.replace('"BIG"', "9" * 5000).encode(),
    "not UTF-8": lambda text: b"\xff\xfe" + text.encode(),
    "deep nesting": lambda text: b"[" * 100_000,
}


@pytest.mark.parametrize("bad_file", ["scenario.json", "net.json"])
@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_run_exits_2_on_undecodable_json(tmp_path, capsys, case, bad_file):
    net = diamond_doc()
    doc = minimal_doc(network_file="net.json")
    del doc["network"]
    if bad_file == "scenario.json":
        doc["sim"]["dt_s"] = "BIG"
    else:
        net["links"][0]["length_m"] = "BIG"
    for name, value in (("scenario.json", doc), ("net.json", net)):
        text = json.dumps(value)
        (tmp_path / name).write_bytes(
            UNDECODABLE[case](text) if name == bad_file else text.encode())
    sc = str(tmp_path / "scenario.json")
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "runtime failure" not in capsys.readouterr().err


def test_scenario_bad_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\n  'sim': }")
    with pytest.raises(ConfigError, match=r":2:"):
        load_scenario(str(p))


def test_sweep_helpers():
    sc = scenario_from_dict(minimal_doc(events_random={"count": 1}))
    assert sc.with_seed(9).sim.seed == 9
    assert sc.with_p_user(0.25).traffic.p_user == 0.25
    assert sc.with_event_count(7).events_random.count == 7
    with pytest.raises(ConfigError):
        sc.with_p_user(2.0)
    no_random = scenario_from_dict(minimal_doc())
    with pytest.raises(ConfigError):
        no_random.with_event_count(3)


# ------------------------------------------------- mutated demo documents

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scenarios")


def demo_doc():
    with open(os.path.join(SCENARIOS, "demo.json"), encoding="utf-8") as fh:
        return json.load(fh)


def inlined_demo_doc():
    """scenarios/demo.json with its network document inlined."""
    doc = demo_doc()
    with open(os.path.join(SCENARIOS, doc.pop("network_file")), encoding="utf-8") as fh:
        doc["network"] = json.load(fh)
    return doc


def document_paths(value, path=()):
    """(path, is_leaf) for every value below `value`, as key and index paths."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), not isinstance(child, (dict, list))
        yield from document_paths(child, path + (key,))


DEMO_DOC = inlined_demo_doc()
# Every path, split into the network document's and the rest's, so that the
# scenario blocks are mutated as often as the much larger network.
DEMO_PATHS = {
    part: [(p, leaf) for p, leaf in document_paths(DEMO_DOC)
           if (p[0] == "network") == (part == "network")]
    for part in ("scenario", "network")
}
# The demo document as committed, which names its network file, so that the
# network_file key is mutated too.
FILE_DEMO_DOC = demo_doc()
DEMO_PATHS["network_file"] = [(("network_file",), True)]
JSON_VALUES = (0, -1, 1, 2, 0.5, -0.5, 1.5, 1e-9, 1e308, -1e308, 10**400, 2**63,
               True, False, None, "x", [], {})


@st.composite
def mutated_demo_docs(draw):
    """(op, document): the inlined demo document, or the committed one for
    its network_file key, with one mutation: a leaf replaced by one of
    JSON_VALUES, a key or list item deleted, a value wrapped in a list, or an
    object key renamed by appending "_"."""
    part = draw(st.sampled_from(sorted(DEMO_PATHS)))
    doc = copy.deepcopy(FILE_DEMO_DOC if part == "network_file" else DEMO_DOC)
    paths = DEMO_PATHS[part]
    op = draw(st.sampled_from(["replace", "delete", "wrap", "rename"]))
    path, _ = draw(st.sampled_from([
        (p, leaf) for p, leaf in paths
        if (leaf or op != "replace") and (isinstance(p[-1], str) or op != "rename")]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = draw(st.sampled_from(JSON_VALUES))
    elif op == "delete":
        del parent[key]
    elif op == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key + "_"] = parent.pop(key)
    return op, doc


class StopRun(Exception):
    """Ends a run from its observer."""


def stop_after_20_steps(eng, step):
    if step == 19:
        raise StopRun


@settings(max_examples=150, deadline=None)
@given(mutated_demo_docs())
def test_a_mutated_demo_document_is_rejected_or_runs(case):
    """Bad input fails at load with ConfigError, or during the run with
    ConfigError; no other exception and no numpy warning. A misspelled key
    (a renamed one) always fails at load: every block names the keys it
    reads, and every network item key is required."""
    op, doc = case
    try:
        sc = scenario_from_dict(doc, base_dir=SCENARIOS, source="demo")
    except ConfigError:
        return
    assert op != "rename", "a renamed key loaded"
    try:
        Engine(sc, on_step=stop_after_20_steps).run()
    except (ConfigError, StopRun):
        pass
