import dataclasses
import json
import math
import os
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinnav.cli import main
from twinnav.errors import ConfigError, ContractError
from twinnav.netgen import generate_grid_network
from twinnav.network import (
    END_TOLERANCE_M,
    INF,
    MAX_COORD_M,
    MAX_LENGTH_M,
    MAX_V_FREE_MPS,
    MAX_VEHICLES,
    SPEED_FLOOR_MPS,
    Link,
    Node,
    TrafficNetwork,
    build_journey_matrix,
    journey_speed,
    journey_time,
    load_network,
    network_from_dict,
    traffic_density,
)

from conftest import diamond_doc, link, write_json

DEMO_NETWORK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scenarios", "demo_network.json")


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
    l = Link(1, 2, s, v_free, k_max)
    bound = k_max * s * (1.0 - SPEED_FLOOR_MPS / v_free)
    assert journey_time(l, bound * 0.999999) < INF
    assert journey_time(l, bound) == INF
    assert journey_time(l, bound * 1.000001) == INF


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
    for i, x in enumerate(volumes):
        l = Link(*net.pairs[i], net.lengths.item(i), net.v_free.item(i), net.k_max.item(i))
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
    with pytest.raises(ConfigError, match="network has no nodes"):
        TrafficNetwork([], [])


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
    assert net.v_free[0] == pytest.approx(10.0)


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
    doc["links"][1].update(length_m=2 * END_TOLERANCE_M, k_max_veh_per_m=1e9)  # 2 vehicles
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


# Each sets one number of link 1->2 (100 m) or of node 1 past its documented
# range: the capacity k_max_veh_per_m * length_m from 1 to 1e6 vehicles (the
# scenario's vehicle cap), length_m at most 1e6 m, v_free_mps at most 1e3 m/s,
# |x_m| and |y_m| at most 1e7 m. Every value is finite, so only the ranges
# reject them.
PAST_RANGE = {
    "k_max overflowing the capacity": lambda d: d["links"][0].update(
        k_max_veh_per_m=1e308),
    "capacity just past the vehicle cap": lambda d: d["links"][0].update(
        k_max_veh_per_m=10_000.5),
    "capacity below one vehicle": lambda d: d["links"][0].update(
        k_max_veh_per_m=1e-305),
    "capacity just below one vehicle": lambda d: d["links"][0].update(
        k_max_veh_per_m=0.0099),
    "length_m 1e308": lambda d: d["links"][0].update(length_m=1e308),
    "length_m just past 1e6": lambda d: d["links"][0].update(
        length_m=1_000_000.5, k_max_veh_per_m=1e-3),
    "v_free_mps 1e308": lambda d: d["links"][0].update(v_free_mps=1e308),
    "v_free_mps just past 1e3": lambda d: d["links"][0].update(v_free_mps=1000.5),
    "v_free_kmh past 3600": lambda d: d["links"].__setitem__(0, {
        "from": 1, "to": 2, "length_m": 100.0, "v_free_kmh": 3602.0,
        "k_max_veh_per_m": 0.2}),
    "node x_m 1e308": lambda d: d["nodes"][0].update(x_m=1e308),
    "node y_m -1e308": lambda d: d["nodes"][0].update(y_m=-1e308),
    "node x_m just past 1e7": lambda d: d["nodes"][0].update(x_m=1.0000001e7),
}


def past_range_where(case):
    """What the error for a PAST_RANGE case names."""
    return "node 1:" if case.startswith("node") else "links[0] (1->2)"


@pytest.mark.parametrize("case", sorted(PAST_RANGE))
def test_loader_rejects_a_link_number_past_its_range(case):
    doc = diamond_doc()
    PAST_RANGE[case](doc)
    with pytest.raises(ConfigError, match=re.escape(past_range_where(case))):
        network_from_dict(doc)


def test_loader_admits_link_numbers_at_their_range_limits():
    doc = diamond_doc()
    doc["links"][0].update(length_m=1e6, k_max_veh_per_m=1.0, v_free_mps=1e3)
    doc["links"][1].update(k_max_veh_per_m=10_000.0)  # 100 m: 1e6 vehicles
    doc["links"][2].update(k_max_veh_per_m=0.01)  # 100 m: 1 vehicle
    doc["nodes"][0].update(x_m=1e7, y_m=-1e7)
    doc["nodes"][1].update(x_m=-1e7, y_m=1e7)
    net = network_from_dict(doc)
    assert (net.k_max * net.lengths)[:3].tolist() == [1e6, 1e6, 1.0]
    assert [net.coords[n] for n in (1, 2)] == [(1e7, -1e7), (-1e7, 1e7)]


@pytest.mark.parametrize("case", sorted(PAST_RANGE))
def test_run_exits_2_on_a_link_number_past_its_range(tmp_path, capsys, case):
    with open(DEMO_NETWORK, encoding="utf-8") as fh:
        net = json.load(fh)
    assert net["links"][0]["from"] == 1 and net["links"][0]["to"] == 2
    assert net["nodes"][0]["id"] == 1
    PAST_RANGE[case](net)
    write_json(tmp_path / "net.json", net)
    sc = write_json(tmp_path / "scenario.json", {
        "network_file": "net.json",
        "sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": 3},
        "traffic": {"n_vel": 5, "p_user": 0.5},
    })
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert past_range_where(case) in capsys.readouterr().err


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


@pytest.mark.parametrize("n_links, pattern", [
    (25, "n_links must be even"),
    (22, "n_links too small: the orthogonal grid alone needs 24"),
    (42, "n_links too large: at most 40 available"),
], ids=["odd", "too small", "too large"])
def test_generate_grid_network_rejects_a_link_count(n_links, pattern):
    # A 3x3 grid has 12 orthogonal and 8 diagonal node pairs.
    generate_grid_network(rows=3, cols=3, n_links=24)
    generate_grid_network(rows=3, cols=3, n_links=40)
    with pytest.raises(ConfigError, match=pattern):
        generate_grid_network(rows=3, cols=3, n_links=n_links)


def test_run_exits_2_on_a_network_past_the_node_cap(tmp_path, capsys):
    write_json(tmp_path / "net.json", sized_network_doc(10_001, 1))
    sc = write_json(tmp_path / "scenario.json", {
        "network_file": "net.json",
        "sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": 3},
        "traffic": {"n_vel": 5, "p_user": 0.5},
    })
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "out")]) == 2
    assert "more than 10000" in capsys.readouterr().err


def test_loader_rejects_an_unknown_document_key():
    doc = diamond_doc()
    doc["linkz"] = []
    with pytest.raises(ConfigError, match=re.escape("net: unknown keys ['linkz']")):
        network_from_dict(doc, source="net")


@pytest.mark.parametrize("mutate, pattern", [
    (lambda d: d.pop("nodes"), "net: missing required key 'nodes'"),
    (lambda d: d.pop("links"), "net: missing required key 'links'"),
    (lambda d: d.update(links={}), "net: links: expected a JSON array"),
    (lambda d: d.update(nodes=[]), "net: nodes: expected a non-empty array"),
], ids=["no nodes key", "no links key", "links not an array", "no nodes"])
def test_loader_rejects_a_malformed_document(mutate, pattern):
    doc = diamond_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=re.escape(pattern)):
        network_from_dict(doc, source="net")
    with pytest.raises(ConfigError, match="net: expected a JSON object"):
        network_from_dict([doc], source="net")


def test_loader_admits_extra_keys_in_items():
    # Converters may tag items with fields of their own; only the document's
    # top level has a closed key set.
    doc = diamond_doc()
    doc["nodes"][0]["name"] = "depot"
    doc["links"][0]["osm_way"] = 42
    net = network_from_dict(doc)
    assert net.node_count == 4 and net.link_count == 5


@pytest.mark.parametrize("inline", [False, True], ids=["file", "inline"])
def test_run_exits_2_on_an_unknown_network_key(tmp_path, capsys, inline):
    net = diamond_doc()
    net["name"] = "x"
    sc = {"sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": 3},
          "traffic": {"n_vel": 5, "p_user": 0.5}}
    if inline:
        sc["network"] = net
        where = "network"
    else:
        sc["network_file"] = "net.json"
        where = write_json(tmp_path / "net.json", net)
    path = write_json(tmp_path / "scenario.json", sc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{where}: unknown keys ['name']\n")
    assert not (out / "metrics.csv").exists()


def reference_validate(nodes, links):
    """The checks the constructor made in a separate pass before it checked
    while it filled the columns; the reference for their order and text."""
    if not nodes:
        raise ConfigError("network has no nodes")
    ids = sorted(n.node_id for n in nodes)
    if ids != list(range(1, len(nodes) + 1)):
        raise ConfigError(
            f"node ids must be dense 1..{len(nodes)}, got {ids[:5]}..."
            if len(ids) > 5
            else f"node ids must be dense 1..{len(nodes)}, got {ids}"
        )
    for n in nodes:
        if not (abs(n.x_m) <= MAX_COORD_M and abs(n.y_m) <= MAX_COORD_M):
            raise ConfigError(f"node {n.node_id}: x_m and y_m must be within "
                              f"[-{MAX_COORD_M:g}, {MAX_COORD_M:g}]")
    id_set = set(ids)
    seen_pairs = set()
    for k, l in enumerate(links):
        where = f"links[{k}] ({l.from_node}->{l.to_node})"
        if l.from_node not in id_set or l.to_node not in id_set:
            raise ConfigError(f"{where}: endpoint not a known node id")
        if l.from_node == l.to_node:
            raise ConfigError(f"{where}: self-links are not allowed")
        if l.pair in seen_pairs:
            raise ConfigError(f"{where}: duplicate link for this ordered pair")
        seen_pairs.add(l.pair)
        if not END_TOLERANCE_M < l.length_m <= MAX_LENGTH_M:
            raise ConfigError(f"{where}: length_m must be within "
                              f"({END_TOLERANCE_M}, {MAX_LENGTH_M:g}]")
        if not 0 < l.v_free_mps <= MAX_V_FREE_MPS:
            raise ConfigError(f"{where}: free-flow speed must be within "
                              f"(0, {MAX_V_FREE_MPS:g}] m/s")
        if not 1 <= l.k_max_veh_per_m * l.length_m <= MAX_VEHICLES:
            raise ConfigError(f"{where}: the capacity k_max_veh_per_m * length_m "
                              f"must be within [1, {MAX_VEHICLES}] vehicles")


def reference_columns(nodes, links):
    """What the constructor built from items that pass the checks, as it
    built it from its kept `Node` and `Link` lists."""
    in_links = [[] for _ in range(len(nodes) + 1)]
    for i, l in enumerate(links):
        in_links[l.to_node].append(i)
    return {
        "coords": {n.node_id: (n.x_m, n.y_m) for n in nodes},
        "link_index": {l.pair: i for i, l in enumerate(links)},
        "pairs": [l.pair for l in links],
        "in_links": in_links,
        "lengths": np.array([l.length_m for l in links], dtype=float),
        "v_free": np.array([l.v_free_mps for l in links], dtype=float),
        "k_max": np.array([l.k_max_veh_per_m for l in links], dtype=float),
        "from_ids": np.array([l.from_node for l in links], dtype=int),
        "to_ids": np.array([l.to_node for l in links], dtype=int),
    }


# Each plants one fault in valid items: (nodes, links, draw) -> (nodes, links).
# A fault that finds no item to change (no links) leaves the items valid.
def _plant_on_link(change):
    def plant(nodes, links, draw):
        if not links:
            return nodes, links
        k = draw(st.integers(0, len(links) - 1))
        links = list(links)
        links[k] = dataclasses.replace(links[k], **change(nodes, links, draw))
        return nodes, links
    return plant


def _plant_node_id(nodes, links, draw):
    k = draw(st.integers(0, len(nodes) - 1))
    nodes = list(nodes)
    nodes[k] = dataclasses.replace(nodes[k], node_id=draw(st.integers(-1, len(nodes) + 2)))
    return nodes, links


def _plant_coord(nodes, links, draw):
    k = draw(st.integers(0, len(nodes) - 1))
    value = draw(st.sampled_from([math.nan, math.inf, -2e7, 1.0000001e7, 1e308]))
    nodes = list(nodes)
    nodes[k] = dataclasses.replace(nodes[k], **{draw(st.sampled_from(["x_m", "y_m"])): value})
    return nodes, links


FAULTS = {
    "node id": _plant_node_id,
    "coordinate": _plant_coord,
    "unknown endpoint": _plant_on_link(lambda nodes, links, draw: {
        draw(st.sampled_from(["from_node", "to_node"])):
            draw(st.sampled_from([0, -3, len(nodes) + 1]))}),
    "self-link": _plant_on_link(lambda nodes, links, draw: {
        "to_node": draw(st.sampled_from(links)).from_node}),
    "duplicate": _plant_on_link(lambda nodes, links, draw: dict(zip(
        ("from_node", "to_node"), draw(st.sampled_from(links)).pair))),
}
# Each is past the range of every link number: of the capacity too, as the
# valid lengths are 20 to 500 m.
BAD_NUMBERS = st.sampled_from([math.nan, 0.0, -1.0, math.inf, 1e-12, 1e-3, 1e5, 2e6, 1e308])
LINK_NUMBERS = ["length_m", "v_free_mps", "k_max_veh_per_m"]
FAULTS.update({f"bad {name}": _plant_on_link(
    lambda nodes, links, draw, name=name: {name: draw(BAD_NUMBERS)}) for name in LINK_NUMBERS})
# Two or three numbers of one link, so the order of their checks shows.
FAULTS["bad numbers"] = _plant_on_link(lambda nodes, links, draw: draw(
    st.dictionaries(st.sampled_from(LINK_NUMBERS), BAD_NUMBERS, min_size=2)))


@st.composite
def network_items(draw):
    """Valid `Node` and `Link` lists in random order, then up to three
    planted faults."""
    m = draw(st.integers(2, 6) | st.just(1))
    ids = draw(st.permutations(range(1, m + 1)))
    coord = st.floats(-MAX_COORD_M, MAX_COORD_M)
    nodes = [Node(i, draw(coord), draw(coord)) for i in ids]
    all_pairs = [(u, v) for u in range(1, m + 1) for v in range(1, m + 1) if u != v]
    pairs = draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1,
                          max_size=10)) if all_pairs else []
    links = [Link(u, v, draw(st.floats(20.0, 500.0)), draw(st.floats(1.0, 30.0)),
                  draw(st.floats(0.05, 0.5))) for u, v in pairs]
    for fault in draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=3)):
        nodes, links = FAULTS[fault](nodes, links, draw)
    return nodes, links


@settings(max_examples=500, deadline=None)
@given(network_items())
def test_constructor_checks_and_builds_like_the_reference(items):
    nodes, links = items
    try:
        reference_validate(nodes, links)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            TrafficNetwork(nodes, links)
        assert str(got.value) == str(exc)
        return
    net = TrafficNetwork(nodes, links)
    assert (net.node_count, net.link_count) == (len(nodes), len(links))
    for name, want in reference_columns(nodes, links).items():
        have = getattr(net, name)
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype and np.array_equal(have, want), name
        else:
            assert have == want, name


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
