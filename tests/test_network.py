import json
import math
import random

import numpy as np
import pytest

from twinnav.cli import main
from twinnav.errors import ConfigError, ContractError
from twinnav.network import (
    END_TOLERANCE_M,
    INF,
    SPEED_FLOOR_MPS,
    Link,
    Node,
    TrafficNetwork,
    build_journey_matrix,
    journey_speed,
    journey_time,
    link_journey_time,
    load_network,
    network_from_dict,
    traffic_density,
)

from conftest import diamond_doc, link, write_json


def test_traffic_density():
    assert traffic_density(0, 200.0) == 0.0
    assert traffic_density(10, 200.0) == 0.05
    assert traffic_density(7, 140.0) == 0.05


def test_traffic_density_rejects_bad_length():
    with pytest.raises(ContractError):
        traffic_density(1, 0.0)
    with pytest.raises(ContractError):
        traffic_density(1, -5.0)


def test_journey_speed():
    assert journey_speed(0.0, 10.0, 0.2) == 10.0
    assert journey_speed(0.1, 10.0, 0.2) == 5.0
    assert journey_speed(0.25, 10.0, 0.2) == 0.0  # clamped past jam density


def test_journey_speed_monotone_in_density():
    rng = random.Random(0)
    for _ in range(200):
        v_free = rng.uniform(1, 30)
        k_max = rng.uniform(0.05, 0.5)
        ks = sorted(rng.uniform(0, 2 * k_max) for _ in range(10))
        speeds = [journey_speed(k, v_free, k_max) for k in ks]
        assert speeds == sorted(speeds, reverse=True)
        assert journey_speed(0.0, v_free, k_max) == v_free


def test_journey_time():
    l = Link(1, 2, 100.0, 10.0, 0.2)
    assert journey_time(l, 0) == 10.0  # exactly s / v_free
    assert journey_time(l, 10) == 20.0  # density 0.1 halves the speed
    assert journey_time(l, 20) == INF  # jam density


def test_journey_time_non_decreasing_in_volume():
    l = Link(1, 2, 150.0, 12.0, 0.15)
    times = [journey_time(l, x) for x in range(0, 30)]
    for a, b in zip(times, times[1:]):
        assert b >= a


def test_journey_time_finiteness_boundary():
    # Finite exactly while x < k_max * s * (1 - floor / v_free).
    s, v_free, k_max = 100.0, 10.0, 0.2
    bound = k_max * s * (1.0 - SPEED_FLOOR_MPS / v_free)
    assert link_journey_time(s, v_free, k_max, bound * 0.999999) < INF
    assert link_journey_time(s, v_free, k_max, bound) == INF
    assert link_journey_time(s, v_free, k_max, bound * 1.000001) == INF


def two_node_net():
    return TrafficNetwork(
        [Node(1, 0, 0), Node(2, 100, 0)], [Link(1, 2, 100.0, 10.0, 0.2)]
    )


def test_build_journey_matrix_two_nodes():
    net = two_node_net()
    m = build_journey_matrix(net, [0])
    assert m[1, 2] == 10.0
    assert m[2, 1] == INF  # no reverse link
    assert m[1, 1] == INF and m[2, 2] == INF


def test_build_journey_matrix_matches_per_link_recomputation():
    net = network_from_dict(diamond_doc())
    volumes = [3, 7, 0, 12, 5]
    m = build_journey_matrix(net, volumes)
    for l, x in zip(net.links, volumes):
        assert m[l.from_node, l.to_node] == journey_time(l, x)
    finite = np.isfinite(m).sum()
    assert finite == net.link_count


def test_build_journey_matrix_rejects_bad_volume_vector():
    net = two_node_net()
    with pytest.raises(ConfigError):
        build_journey_matrix(net, [0, 1])


def test_build_journey_matrix_is_pure():
    net = network_from_dict(diamond_doc())
    volumes = [1, 2, 3, 4, 5]
    a = build_journey_matrix(net, volumes)
    b = build_journey_matrix(net, volumes)
    assert np.array_equal(a, b)


def test_network_validation_errors():
    nodes = [Node(1, 0, 0), Node(2, 1, 0)]
    with pytest.raises(ConfigError, match="self-link"):
        TrafficNetwork(nodes, [Link(1, 1, 10, 10, 0.2)])
    with pytest.raises(ConfigError, match="duplicate"):
        TrafficNetwork(nodes, [Link(1, 2, 10, 10, 0.2), Link(1, 2, 20, 10, 0.2)])
    with pytest.raises(ConfigError, match="length"):
        TrafficNetwork(nodes, [Link(1, 2, 0, 10, 0.2)])
    with pytest.raises(ConfigError, match="dense"):
        TrafficNetwork([Node(1, 0, 0), Node(3, 1, 0)], [])
    with pytest.raises(ConfigError, match="endpoint"):
        TrafficNetwork(nodes, [Link(1, 9, 10, 10, 0.2)])


def test_loader_roundtrip_and_kmh(tmp_path):
    doc = {
        "nodes": [{"id": 1, "x_m": 0, "y_m": 0}, {"id": 2, "x_m": 50, "y_m": 0}],
        "links": [
            {"from": 1, "to": 2, "length_m": 50, "v_free_kmh": 36.0,
             "k_max_veh_per_m": 0.2}
        ],
    }
    p = tmp_path / "net.json"
    p.write_text(json.dumps(doc))
    net = load_network(str(p))
    assert net.links[0].v_free_mps == pytest.approx(10.0)


def test_loader_rejects_both_speed_keys():
    doc = diamond_doc()
    doc["links"][0]["v_free_kmh"] = 36.0
    with pytest.raises(ConfigError, match="not both"):
        network_from_dict(doc)


def test_loader_reports_element_position():
    doc = diamond_doc()
    doc["links"][3]["length_m"] = -1
    with pytest.raises(ConfigError, match=r"links\[3\]"):
        network_from_dict(doc)


# Each sets one network number to a value JSON readers accept (NaN or
# Infinity) but no network can have.
NON_FINITE = {
    "NaN k_max": lambda d: d["links"][0].update(k_max_veh_per_m=math.nan),
    "infinite length_m": lambda d: d["links"][1].update(length_m=math.inf),
    "NaN v_free_mps": lambda d: d["links"][2].update(v_free_mps=math.nan),
    "infinite v_free_kmh": lambda d: d["links"].__setitem__(2, {
        "from": 1, "to": 3, "length_m": 100.0, "v_free_kmh": math.inf,
        "k_max_veh_per_m": 0.2}),
    "infinite link endpoint": lambda d: d["links"][0].update(to=math.inf),
    "NaN node x_m": lambda d: d["nodes"][0].update(x_m=math.nan),
    "infinite node y_m": lambda d: d["nodes"][3].update(y_m=-math.inf),
    "infinite node id": lambda d: d["nodes"][0].update(id=math.inf),
}


# Each sets one network number to a JSON value that is not a number but that
# float() would read as one.
NON_NUMBER = {
    "string length_m": lambda d: d["links"][0].update(length_m="100"),
    "boolean node x_m": lambda d: d["nodes"][0].update(x_m=True),
    "string v_free_mps": lambda d: d["links"][1].update(v_free_mps="10"),
    "boolean k_max": lambda d: d["links"][2].update(k_max_veh_per_m=True),
    "string v_free_kmh": lambda d: d["links"].__setitem__(2, {
        "from": 1, "to": 3, "length_m": 100.0, "v_free_kmh": "36",
        "k_max_veh_per_m": 0.2}),
}


@pytest.mark.parametrize("case", sorted(NON_NUMBER))
def test_loader_rejects_non_number(case):
    doc = diamond_doc()
    NON_NUMBER[case](doc)
    with pytest.raises(ConfigError, match="JSON number"):
        network_from_dict(doc)


def test_loader_rejects_link_within_end_tolerance():
    # A vehicle entering such a link would already be at its end.
    doc = diamond_doc()
    doc["links"][1]["length_m"] = END_TOLERANCE_M
    with pytest.raises(ConfigError, match=r"links\[1\].*length_m"):
        network_from_dict(doc)
    doc["links"][1]["length_m"] = 2 * END_TOLERANCE_M
    network_from_dict(doc)


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_run_exits_2_on_non_finite_network_number(tmp_path, capsys, case):
    net = diamond_doc()
    NON_FINITE[case](net)
    write_json(tmp_path / "net.json", net)
    sc = write_json(tmp_path / "scenario.json", {
        "network_file": "net.json",
        "sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": 3},
        "traffic": {"n_vel": 5, "p_user": 0.5},
    })
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2


def sized_network_doc(n_nodes, n_links):
    """`n_nodes` nodes on a line and `n_links` distinct links, each node
    linking to the next ones in turn."""
    nodes = [{"id": i, "x_m": float(i), "y_m": 0.0} for i in range(1, n_nodes + 1)]
    links = [link(1 + k % n_nodes, 1 + (k % n_nodes + 1 + k // n_nodes) % n_nodes)
             for k in range(n_links)]
    return {"nodes": nodes, "links": links}


def test_loader_admits_the_network_caps():
    net = network_from_dict(sized_network_doc(10_000, 100_000))
    assert net.node_count == 10_000 and net.link_count == 100_000


@pytest.mark.parametrize("n_nodes, n_links, pattern", [
    (10_001, 0, "10001 nodes, more than 10000"),
    (10_000, 100_001, "100001 links, more than 100000"),
], ids=["nodes", "links"])
def test_loader_rejects_a_network_past_a_cap(n_nodes, n_links, pattern):
    with pytest.raises(ConfigError, match=pattern):
        network_from_dict(sized_network_doc(n_nodes, n_links))


def test_run_exits_2_on_a_network_past_the_node_cap(tmp_path, capsys):
    write_json(tmp_path / "net.json", sized_network_doc(10_001, 1))
    sc = write_json(tmp_path / "scenario.json", {
        "network_file": "net.json",
        "sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": 3},
        "traffic": {"n_vel": 5, "p_user": 0.5},
    })
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "more than 10000" in capsys.readouterr().err


def test_loader_syntax_error_has_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"nodes": [\n  {"id": 1,,}\n]}')
    with pytest.raises(ConfigError, match=r":2:"):
        load_network(str(p))


def test_loader_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_network("/nonexistent/net.json")


def test_reachability():
    net = network_from_dict(
        {
            "nodes": [{"id": i, "x_m": i, "y_m": 0} for i in (1, 2, 3)],
            "links": [link(1, 2)],
        }
    )
    assert net.static_route(1, 2) == [1, 2]
    assert net.static_route(2, 1) is None
    assert net.static_route(1, 3) is None
    assert net.static_route(3, 1) is None
