"""End-to-end acceptance checks. Run with `pytest tests/test_acceptance.py -v -s`
to see one pass/fail line per criterion. The trend criteria (6) replay two full
sweeps on a generated 90-node network and take a few minutes on one core; they
are marked `slow`, so `pytest -m "not slow"` leaves them out.
"""

import contextlib
import json
import math
import random
import time

import numpy as np
import pytest

from twinnav.cli import main
from twinnav.comms import (
    FlowLatency,
    FlowStreams,
    KpiBudget,
    LatencyModel,
    check_deadline,
    deliver,
    kpi_report,
    sample_dt_latency,
    sample_service_latency,
)
from twinnav.nav import (
    INF,
    PlanningInput,
    Route,
    dijkstra_fastest,
    mask_events,
    replan_affected,
    request_distance,
)
from twinnav.netgen import generate_grid_network
from twinnav.network import Link, journey_time
from twinnav.scenario import scenario_from_dict
from twinnav.sim import Engine, run
from twinnav.sweep import SweepSpec, aggregates, run_sweep

from conftest import corridor_doc, make_scenario, write_json
from test_nav import brute_force_min_cost, matrix_from_edges, random_masked_matrix


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# --------------------------------------------------------------- criterion 1


def test_c1_formula_fidelity():
    with criterion(1, "formula fidelity"):
        l = Link(1, 2, 100.0, 10.0, 0.2)
        assert journey_time(l, 0) == 10.0  # exactly s / v_free
        assert journey_time(l, 20) == INF  # jam density closes the link
        assert request_distance(5.556) == pytest.approx(5.062, abs=1e-3)


# --------------------------------------------------------------- criterion 2


def test_c2_planner_oracle():
    with criterion(2, "planner vs brute force over 200 random digraphs"):
        t0 = time.perf_counter()
        rng = random.Random(777)
        checked = 0
        while checked < 200:
            n = rng.randrange(2, 9)
            masked, ev_nodes, ev_links = random_masked_matrix(
                rng, n, rng.randrange(1, 21)
            )
            start = rng.randrange(1, n + 1)
            end = rng.randrange(1, n + 1)
            if start == end:
                continue
            checked += 1
            oracle = brute_force_min_cost(masked.tolist(), start, end)
            found = dijkstra_fastest(masked, start, end)
            if found is None:
                assert oracle == INF
                continue
            assert found.cost == oracle  # exact equality, no tolerance
            hops = set(zip(found.nodes, found.nodes[1:]))
            assert not hops & ev_links
            assert not (set(found.nodes) - {start}) & ev_nodes
        assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------- criterion 3


def test_c3_event_triggered_replanning():
    with criterion(3, "event-triggered re-planning on the diamond"):
        matrix = matrix_from_edges(
            4,
            {(1, 2): 10.0, (2, 4): 10.0, (1, 3): 5.0, (3, 4): 20.0, (2, 3): 12.0},
        )
        masked = mask_events(matrix, set(), {(2, 4)})
        routes = {
            "affected": Route(nodes=[1, 2, 4], cursor=1),
            "passed": Route(nodes=[1, 2, 4], cursor=2),
            "clear": Route(nodes=[1, 3, 4], cursor=1),
        }
        out = replan_affected(PlanningInput(matrix=masked), routes)
        assert set(out.routes) == {"affected"}
        assert list(out.routes["affected"].nodes) == [2, 3, 4]
        assert out.unreachable == set()


# --------------------------------------------------------------- criterion 4

PIN_MAX = {
    "rsu_detect": 153.41, "i2c": 1.74, "v2c": 42.13, "cloud_monitor": 56.29,
    "cloud_plan": 201.07, "localization": 10.13, "route_load": 500.97,
}


def test_c4_latency_budgets():
    with criterion(4, "latency budgets and deadline"):
        t0 = time.perf_counter()
        model = LatencyModel()
        streams = FlowStreams(123456)
        n = 1_000_000
        v20 = 20 / 3.6

        dt_max = 0.0
        svc_min = math.inf
        for _ in range(n):
            dt = sample_dt_latency(model, streams)
            if dt > dt_max:
                dt_max = dt
            svc = sample_service_latency(model, streams)
            if svc < svc_min:
                svc_min = svc
            assert svc <= 0.91111 + 1e-9  # fits the deadline at 20 km/h
            assert check_deadline(svc, v20)
        assert dt_max <= 0.15515 + 1e-9
        assert dt_max < svc_min  # twin modeling strictly precedes service

        # Structural interval separation from the configured ranges.
        assert model.dt_bounds_s()[1] == pytest.approx(0.15515, abs=1e-5)
        assert model.service_bounds_s()[0] == pytest.approx(0.75984, abs=1e-5)
        assert model.dt_bounds_s()[1] < model.service_bounds_s()[0]

        pinned = LatencyModel(
            flows={k: FlowLatency(v, v) for k, v in PIN_MAX.items()}
        )
        assert sample_service_latency(pinned, streams, single_v2c=True) == \
            pytest.approx(0.81059, abs=1e-5)
        assert sample_service_latency(pinned, streams) == \
            pytest.approx(0.85272, abs=1e-5)
        assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------- criterion 5


def test_c5_packet_delivery_ratio():
    with criterion(5, "packet delivery ratio"):
        t0 = time.perf_counter()
        rng = random.Random(31337)
        n = 100_000
        hits = sum(deliver(0.9953, rng) for _ in range(n))
        assert hits / n == pytest.approx(0.9953, abs=0.002)
        report = kpi_report(
            {"ssms_e2e": [0.001]}, KpiBudget(), pdr_ssms=0.9953
        )
        assert report.row("ssms_reliability").passed  # above the 95% floor
        assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------- criterion 6

N_SEEDS = 20
P_VALUES = tuple(round(n / 300, 4) for n in range(10, 101, 10))
E_VALUES = tuple(range(11))


def sweep_scenario():
    net_doc = generate_grid_network(
        rows=9, cols=10, spacing_m=100.0, n_links=504,
        v_free_range_mps=(5.0, 15.0), k_max_veh_per_m=0.1, seed=1,
    )
    rsu_nodes = [r * 10 + c + 1 for r in (1, 4, 7) for c in (1, 4, 7)]
    return scenario_from_dict(
        {
            "network": net_doc,
            "sim": {"dt_s": 1.0, "t_sim_s": 600.0, "seed": 42},
            "traffic": {"n_vel": 300, "p_user": 0.167},
            "events_random": {
                "count": 5,
                "kinds": ["accident", "gathering"],
                "onset_max_s": 300.0,
                "duration_s": 250.0,
            },
            "sensing": {"rsus": [{"node": n, "radius_m": 250.0} for n in rsu_nodes]},
        }
    )


@pytest.fixture(scope="module")
def trend_sweeps():
    base = sweep_scenario()
    t0 = time.perf_counter()
    single = run(base)  # one 600-step run, timed separately
    t_single = time.perf_counter() - t0
    assert single.completed_cav + single.completed_unconnected > 0

    t0 = time.perf_counter()
    p_rows = aggregates(
        run_sweep(
            SweepSpec(base=base, param="p_user", values=P_VALUES,
                      seeds_per_point=N_SEEDS)
        )
    )
    e_rows = aggregates(
        run_sweep(
            SweepSpec(base=base, param="events", values=E_VALUES,
                      seeds_per_point=N_SEEDS)
        )
    )
    t_sweeps = time.perf_counter() - t0
    return p_rows, e_rows, t_single, t_sweeps


def slope(xs, ys):
    return float(np.polyfit(xs, ys, 1)[0])


@pytest.mark.slow
def test_c6_efficiency_and_safety_trends(trend_sweeps):
    with criterion(6, "efficiency and safety trends"):
        p_rows, e_rows, t_single, t_sweeps = trend_sweeps
        assert t_single < 10.0
        assert t_sweeps < 600.0

        # (a) with events present, connected users traverse faster than
        # unconnected ones at (almost) every penetration level.
        wins = sum(
            r.metrics.mean_tt_cav_s < r.metrics.mean_tt_unconnected_s
            for r in p_rows
        )
        assert wins >= 0.9 * len(p_rows)

        # (b) travel time grows with the number of events, and connected users
        # keep their edge once events are frequent.
        es = [r.value for r in e_rows]
        assert slope(es, [r.metrics.mean_tt_overall_s for r in e_rows]) > 0
        for r in e_rows:
            if r.value >= 3:
                assert r.metrics.mean_tt_cav_s < r.metrics.mean_tt_unconnected_s

        # (c) event encounters accumulate much more slowly for connected users.
        cav_slope = slope(es, [r.metrics.mean_enc_cav for r in e_rows])
        unc_slope = slope(es, [r.metrics.mean_enc_unconnected for r in e_rows])
        assert cav_slope <= 0.5 * unc_slope

        # (d) higher penetration lowers encounters and blocking overall.
        ps = [r.value for r in p_rows]
        assert slope(ps, [r.metrics.mean_enc_overall for r in p_rows]) < 0
        assert (
            p_rows[-1].metrics.blocking_overall
            < p_rows[0].metrics.blocking_overall
        )


# --------------------------------------------------------------- criterion 7


def test_c7_byte_identical_outputs(tmp_path):
    with criterion(7, "byte-identical runs and sweeps"):
        net_doc = generate_grid_network(seed=3, n_links=504)
        doc = {
            "network": net_doc,
            "sim": {"dt_s": 1.0, "t_sim_s": 600.0, "seed": 42},
            "traffic": {"n_vel": 300, "p_user": 0.167},
            "events_random": {"count": 5, "duration_s": 250.0},
            "sensing": {"rsus": [{"node": 45, "radius_m": 2000.0}]},
        }
        sc = write_json(tmp_path / "scenario.json", doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--scenario", sc, "--seed", "5",
                         "--out", str(out)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == \
            (out_b / "metrics.csv").read_bytes()

        sw_a, sw_b = tmp_path / "sa", tmp_path / "sb"
        args = ["sweep", "--scenario", sc, "--param", "events",
                "--values", "0,3", "--seeds", "2"]
        for out in (sw_a, sw_b):
            assert main(args + ["--out", str(out)]) == 0
        assert (sw_a / "sweep.csv").read_bytes() == \
            (sw_b / "sweep.csv").read_bytes()


# --------------------------------------------------------------- criterion 8


def test_c8_twin_soundness():
    with criterion(8, "twin soundness"):
        # Full coverage, perfect delivery: the twin mirrors ground truth at
        # every sampling step and catches every scheduled event in time.
        sc = make_scenario(
            corridor_doc(n=4),
            traffic={"n_vel": 40, "p_user": 0.0},
            sim={"dt_s": 1.0, "t_sim_s": 120.0, "seed": 3},
            sensing={"rsus": [{"node": 2, "radius_m": 10000.0}]},
            events=[
                {"kind": "accident", "link": [2, 3], "onset_s": 30.0},
                {"kind": "gathering", "node": 4, "onset_s": 50.0},
            ],
        )
        first_flag = {}

        class MirrorCheckedEngine(Engine):
            def _sense_and_ingest(self, step):
                super()._sense_and_ingest(step)
                assert np.array_equal(self.twin.volumes(), self.link_counts)

        def probe(eng, step):
            if "acc" not in first_flag and (2, 3) in eng.twin.event_link_pairs():
                first_flag["acc"] = step
            if "gat" not in first_flag and 4 in eng.twin.event_nodes:
                first_flag["gat"] = step

        MirrorCheckedEngine(sc, on_step=probe).run()
        window = sc.thresholds.accident_window_s
        assert first_flag["acc"] - 30 <= window + 2 * sc.sim.dt_s
        assert first_flag["gat"] - 50 <= window + 2 * sc.sim.dt_s

        # Zero RSU coverage of the event link: it stays unknown until a
        # connected vehicle drives onto it.
        sc2 = make_scenario(
            corridor_doc(n=4),
            traffic={"n_vel": 20, "p_user": 1.0},
            sim={"dt_s": 1.0, "t_sim_s": 120.0, "seed": 11},
            sensing={"rsus": [{"node": 1, "radius_m": 150.0}]},  # links (1,2) only
            events=[{"kind": "accident", "link": [2, 3], "onset_s": 5.0}],
        )
        seen = {}

        def probe2(eng, step):
            li = eng.net.link_index[(2, 3)]
            if "on" not in seen and any(
                v.link_idx == li and v.klass == "cav" for v in eng.vehicles
            ):
                seen["on"] = step
            if "flag" not in seen and (2, 3) in eng.twin.event_link_pairs():
                seen["flag"] = step

        eng2 = Engine(sc2, on_step=probe2)
        eng2.run()
        assert "on" in seen and "flag" in seen
        assert seen["flag"] >= seen["on"]


# --------------------------------------------------------------- criterion 9


def test_c9_service_round_trip():
    with criterion(9, "service round trip"):
        import socket
        import threading

        from twinnav.service import RouteService

        from conftest import diamond_doc

        sc = make_scenario(diamond_doc(), traffic={"n_vel": 0, "p_user": 0.0})
        srv = RouteService(sc, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
            fh = sock.makefile("rwb")

            def send(msg):
                fh.write(json.dumps(msg).encode() + b"\n")
                fh.flush()

            def request(msg):
                send(msg)
                return json.loads(fh.readline())

            for t in (0.0, 5.0, 10.0):
                send({
                    "type": "sensor_update",
                    "source": {"kind": "rsu", "id": 0},
                    "time_s": t,
                    "links": [{"from": 2, "to": 4, "volume": 3,
                               "speed_mps": 0.1, "occupied": True}],
                })
            req = {"type": "route_request", "vehicle": "probe",
                   "position": 1, "destination": 4}
            reply = request(req)
            assert reply["status"] == "ok"
            assert (2, 4) not in set(zip(reply["route"], reply["route"][1:]))

            times = []
            for _ in range(40):
                t0 = time.perf_counter()
                request(req)
                times.append(time.perf_counter() - t0)
            times.sort()
            assert times[len(times) // 2] < 0.050  # p50 under 50 ms
            sock.close()
        finally:
            srv.shutdown()
            srv.server_close()
