import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from twinnav.netgen import generate_grid_network
from twinnav.network import network_from_dict
from twinnav.sim import Engine, MetricsSummary, Vehicle, poisson_draw, \
    record_encounter, run, shortest_distance_route
from twinnav.nav import Route

from conftest import corridor_doc, diamond_doc, grid_nodes, link, make_scenario


# ------------------------------------------------------------- spawn counts


def knuth_single_loop(rng, lam):
    """Knuth's product method in one loop, as the engine drew before rates
    were split into chunks: the reference for every rate up to 500."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def test_poisson_draw_unchanged_up_to_rate_500():
    for lam in (0.0, 0.3, 1.0, 7.5, 120.0, 499.9, 500.0):
        a, b = random.Random(f"p/{lam}"), random.Random(f"p/{lam}")
        assert [poisson_draw(a, lam) for _ in range(50)] == \
            [knuth_single_loop(b, lam) for _ in range(50)]
        assert a.random() == b.random()  # the same stream consumed


def test_poisson_draw_mean_at_large_rate():
    # exp(-2000) underflows to 0, which would stop a single loop near 745.
    rng = random.Random(2000)
    lam, n = 2000.0, 200
    mean = sum(poisson_draw(rng, lam) for _ in range(n)) / n
    assert abs(mean - lam) < 5 * math.sqrt(lam / n)


# --------------------------------------------------------- static route choice


def test_shortest_distance_route_picks_shorter_total():
    doc = {
        "nodes": grid_nodes([(1, 0, 0), (2, 100, 50), (3, 100, -50), (4, 200, 0)]),
        "links": [
            link(1, 2, length_m=70.0),
            link(2, 4, length_m=80.0),  # 1-2-4 totals 150
            link(1, 3, length_m=60.0),
            link(3, 4, length_m=80.0),  # 1-3-4 totals 140
        ],
    }
    net = network_from_dict(doc)
    assert shortest_distance_route(net, 1, 4).nodes == [1, 3, 4]


def test_shortest_distance_route_single_path(corridor_net):
    assert shortest_distance_route(corridor_net, 1, 4).nodes == [1, 2, 3, 4]


def test_shortest_distance_route_tie_prefers_lower_node():
    doc = {
        "nodes": grid_nodes([(1, 0, 0), (2, 100, 50), (3, 100, -50), (4, 200, 0)]),
        "links": [
            link(1, 2, length_m=75.0),
            link(2, 4, length_m=75.0),
            link(1, 3, length_m=75.0),
            link(3, 4, length_m=75.0),
        ],
    }
    net = network_from_dict(doc)
    assert shortest_distance_route(net, 1, 4).nodes == [1, 2, 4]


def test_shortest_distance_route_unreachable(corridor_net):
    assert shortest_distance_route(corridor_net, 4, 1) is None


# ------------------------------------------------------------------ encounters


def test_record_encounter_distinct_pairs():
    veh = Vehicle(vid=1, klass="unconnected", origin=1, destination=3,
                  entry_step=0, route=Route(nodes=[1, 2, 3], vehicle_id=1),
                  link_idx=0)
    record_encounter(veh, {0: [4]}, {}, blocked_now=True)
    record_encounter(veh, {0: [4]}, {}, blocked_now=False)  # same event again
    assert len(veh.encountered) == 1
    assert veh.blocked  # sticky once set

    # Approaching node 2 while an event sits on it counts as well.
    record_encounter(veh, {}, {2: [9]}, blocked_now=False)
    assert veh.encountered == {4, 9}


def test_record_encounter_off_network_vehicle():
    veh = Vehicle(vid=1, klass="cav", origin=1, destination=3, entry_step=0)
    record_encounter(veh, {0: [4]}, {1: [5]}, blocked_now=False)
    assert veh.encountered == set()


# ------------------------------------------------------------------- free flow


def test_free_flow_travel_time_quantization():
    # One link, huge capacity: everyone rides at v_free and takes s / v_free.
    doc = {
        "nodes": grid_nodes([(1, 0, 0), (2, 100, 0)]),
        "links": [link(1, 2, length_m=100.0, v_free_mps=10.0, k_max=100.0)],
    }
    sc = make_scenario(doc, traffic={"n_vel": 3, "p_user": 0.0})
    eng = Engine(sc)
    m = eng.run()
    assert m.completed_unconnected == 3
    for veh in eng.vehicles:
        tt = (veh.arrival_step - veh.entry_step) * sc.sim.dt_s
        assert 10.0 <= tt <= 10.0 + sc.sim.dt_s


def test_degenerate_class_split():
    sc = make_scenario(corridor_doc(), traffic={"n_vel": 8, "p_user": 0.0})
    m = run(sc)
    assert m.spawned_cav == 0
    assert math.isnan(m.mean_tt_cav_s)
    assert m.mean_tt_overall_s == m.mean_tt_unconnected_s
    assert m.mean_enc_overall == m.mean_enc_unconnected == 0.0


# ------------------------------------------------------------------ invariants


def check_step_invariants(eng, step):
    """Conservation, queue bookkeeping, the capacity gate and vehicle states."""
    vehicles = eng.vehicles
    assert len(vehicles) == eng._spawned
    counts = eng.link_counts.tolist()
    assert counts == [len(q) for q in eng.link_queues]
    assert (eng.link_counts <= eng.link_capacity).all()
    on_link = {veh.vid: li for li, q in enumerate(eng.link_queues) for veh in q}
    assert len(on_link) == sum(counts)  # no vehicle sits in two queues
    waiting = arrived = 0
    for veh in vehicles:
        if veh.arrival_step is not None:
            arrived += 1
            assert veh.state == "arrived" and veh.link_idx is None
            assert veh.arrival_step <= step and veh.vid not in on_link
        elif veh.link_idx is None:
            waiting += 1
            assert veh.state == "queued" and veh.vid not in on_link
        else:
            assert veh.state in ("queued", "moving")
            assert on_link.get(veh.vid) == veh.link_idx
    assert waiting + len(on_link) + arrived == eng._spawned
    assert eng._active == [v for v in vehicles if v.arrival_step is None]


def test_conservation_and_capacity_every_step():
    doc = corridor_doc(n=5, k_max=0.05)  # tight capacity forces queueing
    sc = make_scenario(
        doc,
        traffic={"n_vel": 30, "p_user": 0.4},
        sim={"dt_s": 1.0, "t_sim_s": 200.0, "seed": 5},
        sensing={"rsus": [{"node": 1, "radius_m": 10000}]},
        events=[{"kind": "accident", "link": [3, 4], "onset_s": 40, "end_s": 90}],
    )
    eng = Engine(sc, on_step=check_step_invariants)
    m = eng.run()
    assert m.completed_cav + m.completed_unconnected > 0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_engine_invariants_on_random_grids(data):
    """Random small grids with tight jam capacity, random connected share and
    demand, timed accidents and gatherings, one RSU and lossy delivery."""
    rows, cols = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    ortho = rows * (cols - 1) + cols * (rows - 1)
    extra = data.draw(st.integers(0, 2 * (rows - 1) * (cols - 1)))
    net_doc = generate_grid_network(
        rows=rows, cols=cols, n_links=2 * (ortho + extra),
        k_max_veh_per_m=data.draw(st.floats(0.02, 0.06)),  # 2 to 8 per link
        seed=data.draw(st.integers(0, 10_000)),
    )
    m = rows * cols
    pairs = [(l["from"], l["to"]) for l in net_doc["links"]]
    t_sim = data.draw(st.integers(40, 150))
    events = []
    for _ in range(data.draw(st.integers(0, 4))):
        onset = data.draw(st.integers(0, t_sim))
        end = data.draw(st.none() | st.integers(onset, t_sim + 20))
        if data.draw(st.booleans()):
            where = {"kind": "accident", "link": list(data.draw(st.sampled_from(pairs)))}
        else:
            where = {"kind": "gathering", "node": data.draw(st.integers(1, m))}
        events.append(dict(where, onset_s=float(onset),
                           end_s=None if end is None else float(end)))
    sc = make_scenario(
        net_doc,
        sim={"dt_s": 1.0, "t_sim_s": float(t_sim), "seed": data.draw(st.integers(0, 99))},
        traffic={"n_vel": data.draw(st.integers(0, 80)),
                 "p_user": data.draw(st.floats(0.0, 1.0))},
        latency={"pdr_ssms": 1.0, "pdr_info": data.draw(st.floats(0.5, 1.0))},
        sensing={"rsus": [{"node": data.draw(st.integers(1, m)),
                           "radius_m": data.draw(st.floats(50.0, 400.0))}]},
        events=events,
    )
    Engine(sc, on_step=check_step_invariants).run()


def test_blocked_vehicles_resume_after_event_clears():
    doc = corridor_doc(n=4)
    sc = make_scenario(
        doc,
        traffic={"n_vel": 6, "p_user": 0.0},
        sim={"dt_s": 1.0, "t_sim_s": 300.0, "seed": 2},
        events=[{"kind": "accident", "link": [2, 3], "onset_s": 10, "end_s": 120}],
    )
    eng = Engine(sc)
    m = eng.run()
    assert m.completed_unconnected == 6  # everyone eventually finishes
    assert m.blocking_unconnected > 0  # but some were pinned by the event
    for veh in eng.vehicles:
        if veh.blocked:
            tt = (veh.arrival_step - veh.entry_step) * sc.sim.dt_s
            free_flow = 10.0 * (len(veh.route.nodes) - 1)
            assert tt > free_flow + 10.0  # paid for the wait
            assert veh.encountered  # and the contact was counted


def test_unconnected_never_replan_cavs_do():
    # Corridor with a bypass 2 -> 5 -> 4; closing (3,4) re-routes only CAVs.
    doc = {
        "nodes": grid_nodes(
            [(1, 0, 0), (2, 100, 0), (3, 200, 0), (4, 300, 0), (5, 200, 100)]
        ),
        "links": [
            link(1, 2), link(2, 3), link(3, 4),
            link(2, 5, length_m=140.0), link(5, 4, length_m=140.0),
        ],
    }
    sc = make_scenario(
        doc,
        traffic={"n_vel": 10, "p_user": 0.5},
        sim={"dt_s": 1.0, "t_sim_s": 400.0, "seed": 8},
        sensing={"rsus": [{"node": 3, "radius_m": 10000}]},
        events=[{"kind": "accident", "link": [3, 4], "onset_s": 0, "end_s": 250}],
    )
    eng = Engine(sc)
    m = eng.run()
    assert m.completed_cav + m.completed_unconnected == 10
    # Unconnected vehicles with routes through (3,4) keep them and get pinned;
    # connected users avoid the flagged link whenever an alternative exists
    # (a user starting at node 3 has no choice and waits for clearance).
    for veh in eng.vehicles:
        if veh.klass == "cav" and veh.entry_step > 30 and veh.origin != 3:
            hops = set(zip(veh.route.nodes, veh.route.nodes[1:]))
            assert (3, 4) not in hops
    assert m.blocking_cav <= m.blocking_unconnected


def test_mean_travel_time_excludes_en_route_vehicles():
    doc = corridor_doc(n=4)
    sc = make_scenario(
        doc,
        traffic={"n_vel": 8, "p_user": 0.0},
        sim={"dt_s": 1.0, "t_sim_s": 60.0, "seed": 4},
        events=[{"kind": "accident", "link": [2, 3], "onset_s": 0}],  # never ends
    )
    eng = Engine(sc)
    m = eng.run()
    stuck = [v for v in eng.vehicles if not v.arrived]
    assert stuck, "expected trapped vehicles"
    done_tt = [
        (v.arrival_step - v.entry_step) * sc.sim.dt_s for v in eng.vehicles if v.arrived
    ]
    if done_tt:
        assert m.mean_tt_unconnected_s == pytest.approx(
            sum(done_tt) / len(done_tt)
        )
    else:
        assert math.isnan(m.mean_tt_unconnected_s)
    # Encounters and blocking still count the trapped vehicles.
    assert m.mean_enc_unconnected >= len(
        [v for v in stuck if v.encountered]
    ) / max(m.spawned_unconnected, 1)


def test_determinism_identical_seeds():
    doc = diamond_doc()
    sc = make_scenario(
        doc,
        traffic={"n_vel": 20, "p_user": 0.5},
        sim={"dt_s": 1.0, "t_sim_s": 150.0, "seed": 77},
        sensing={"rsus": [{"node": 1, "radius_m": 10000}]},
        events_random={"count": 2, "duration_s": 60.0},
    )
    a = run(sc)
    b = run(sc)
    assert a == b
    assert a.csv_row() == b.csv_row()
    c = run(sc, seed=78)
    assert c != a


def test_metrics_csv_has_nine_columns():
    sc = make_scenario(corridor_doc(), traffic={"n_vel": 4, "p_user": 0.0})
    m = run(sc)
    assert len(MetricsSummary.csv_header().split(",")) == 9
    assert len(m.csv_row().split(",")) == 9


# ----------------------------------------------- statistical routing contracts


def _mini_grid_doc():
    # 3x3 two-way grid with varied speeds: fastest and shortest paths differ.
    nodes = grid_nodes(
        [(r * 3 + c + 1, c * 100.0, r * 100.0) for r in range(3) for c in range(3)]
    )
    speeds = {0: 6.0, 1: 14.0}
    links = []
    k = 0
    for r in range(3):
        for c in range(3):
            nid = r * 3 + c + 1
            if c < 2:
                v = speeds[k % 2]; k += 1
                links += [link(nid, nid + 1, v_free_mps=v),
                          link(nid + 1, nid, v_free_mps=v)]
            if r < 2:
                v = speeds[k % 2]; k += 1
                links += [link(nid, nid + 3, v_free_mps=v),
                          link(nid + 3, nid, v_free_mps=v)]
    return {"nodes": nodes, "links": links}


def test_cav_no_worse_than_unconnected_without_events():
    doc = _mini_grid_doc()
    cav_means, unc_means = [], []
    for seed in range(20):
        sc = make_scenario(
            doc,
            traffic={"n_vel": 40, "p_user": 0.5},
            sim={"dt_s": 1.0, "t_sim_s": 240.0, "seed": seed},
            sensing={"rsus": [{"node": 5, "radius_m": 10000}]},
        )
        m = run(sc)
        if not math.isnan(m.mean_tt_cav_s):
            cav_means.append(m.mean_tt_cav_s)
        if not math.isnan(m.mean_tt_unconnected_s):
            unc_means.append(m.mean_tt_unconnected_s)
    cav = sum(cav_means) / len(cav_means)
    unc = sum(unc_means) / len(unc_means)
    assert cav <= unc + 1.0  # within one sampling step on expectation


def test_more_sensing_never_hurts_on_average():
    doc = _mini_grid_doc()

    def mean_cav_tt(rsus):
        total, count = 0.0, 0
        for seed in range(20):
            sc = make_scenario(
                doc,
                traffic={"n_vel": 40, "p_user": 0.5},
                sim={"dt_s": 1.0, "t_sim_s": 240.0, "seed": 100 + seed},
                sensing={"rsus": rsus},
                events_random={"count": 2, "duration_s": 120.0},
            )
            m = run(sc)
            if not math.isnan(m.mean_tt_cav_s):
                total += m.mean_tt_cav_s
                count += 1
        return total / count

    full = mean_cav_tt([{"node": 5, "radius_m": 10000}])
    blind = mean_cav_tt([])
    assert full <= blind
