"""Each benchmark check must accept twinnav's real output and reject a planted
wrong one. Run with `python3 -m pytest perfbench/test_checks.py`."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
try:
    import twinnav  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed, NetRef  # noqa: E402
from twinnav import comms, sim, sweep  # noqa: E402
from twinnav.scenario import scenario_from_dict  # noqa: E402


def _link(a, b, length=100.0, v_free=10.0, k_max=0.2):
    return {"from": a, "to": b, "length_m": length, "v_free_mps": v_free,
            "k_max_veh_per_m": k_max}


DIAMOND = {
    "nodes": [{"id": i, "x_m": x, "y_m": y}
              for i, x, y in ((1, 0, 0), (2, 100, 100), (3, 100, -100), (4, 200, 0))],
    "links": [_link(1, 2), _link(2, 4), _link(1, 3), _link(3, 4, length=120.0),
              _link(2, 3, length=150.0)],
}


def _reply(route, status="ok", vehicle="v"):
    return {"type": "route_response", "vehicle": vehicle, "route": route,
            "status": status}


def _diamond_weights(masked=()):
    net = NetRef(DIAMOND)
    weight = {p: net.journey_time(p, 0.0) for p in net.links}
    for p in masked:
        weight[p] = checks.INF
    return net, weight


REQ = {"vehicle": "v", "position": 1, "destination": 4}


def test_route_check_accepts_shortest_route():
    net, weight = _diamond_weights()
    checks.check_route_reply(net, weight, set(), set(), REQ, _reply([1, 2, 4]))


def test_route_check_rejects_incident_link():
    net, weight = _diamond_weights(masked=[(2, 4)])
    checks.check_route_reply(net, weight, {(2, 4)}, set(), REQ, _reply([1, 3, 4]))
    with pytest.raises(CheckFailed, match="incident link"):
        checks.check_route_reply(net, weight, {(2, 4)}, set(), REQ, _reply([1, 2, 4]))


def test_route_check_rejects_incident_node():
    net, weight = _diamond_weights(masked=[(1, 2)])
    with pytest.raises(CheckFailed, match="incident node"):
        checks.check_route_reply(net, weight, set(), {2}, REQ, _reply([1, 2, 4]))


def test_route_check_rejects_longer_route_and_missing_link():
    net, weight = _diamond_weights()
    with pytest.raises(CheckFailed, match="shortest"):
        checks.check_route_reply(net, weight, set(), set(), REQ, _reply([1, 2, 3, 4]))
    with pytest.raises(CheckFailed, match="missing link"):
        checks.check_route_reply(net, weight, set(), set(), REQ, _reply([1, 4]))


def test_route_check_rejects_false_unreachable():
    net, weight = _diamond_weights()
    with pytest.raises(CheckFailed, match="unreachable"):
        checks.check_route_reply(net, weight, set(), set(), REQ, _reply([], "unreachable"))


CORRIDOR = {
    "nodes": [{"id": i, "x_m": 100.0 * i, "y_m": 0.0} for i in range(1, 5)],
    "links": [_link(i, i + 1) for i in range(1, 4)],
}


def _corridor_engine():
    sc = scenario_from_dict({
        "network": CORRIDOR,
        "sim": {"dt_s": 1.0, "t_sim_s": 120.0, "seed": 3},
        "traffic": {"n_vel": 20, "p_user": 0.5},
        "latency": {"pdr_ssms": 1.0, "pdr_info": 1.0},
    })
    eng = sim.Engine(sc)
    eng.run()
    return eng, NetRef(CORRIDOR)


def test_engine_checks_accept_a_real_run_and_reject_a_fast_vehicle():
    eng, net = _corridor_engine()
    checks.check_engine_final(eng, net, 20, 1.0)
    veh = next(v for v in eng.vehicles if v.arrival_step is not None)
    veh.arrival_step = veh.entry_step + 1
    with pytest.raises(CheckFailed, match="below free-flow"):
        checks.check_engine_final(eng, net, 20, 1.0)


def test_engine_checks_reject_a_broken_route_and_a_lost_vehicle():
    eng, net = _corridor_engine()
    veh = next(v for v in eng.vehicles if v.arrival_step is not None)
    veh.route.nodes = [veh.origin, veh.destination + 1]
    with pytest.raises(CheckFailed):
        checks.check_engine_final(eng, net, 20, 1.0)
    eng, net = _corridor_engine()
    veh = next(v for v in eng.vehicles if v.arrival_step is not None)
    veh.arrival_step, veh.link_idx = None, 0
    with pytest.raises(CheckFailed, match="on link 0 but not in its queue"):
        checks.check_engine_final(eng, net, 20, 1.0)


def test_engine_step_check_rejects_count_mismatch_and_overfull_link():
    eng, _ = _corridor_engine()
    capacity = [l["k_max_veh_per_m"] * l["length_m"] for l in CORRIDOR["links"]]
    checks.check_engine_step(eng, capacity)
    eng.link_counts[1] += 1
    with pytest.raises(CheckFailed, match="but queues"):
        checks.check_engine_step(eng, capacity)
    eng.link_counts[1] -= 1
    eng.link_queues[0].extend([object()] * 25)
    eng.link_counts[0] += 25
    with pytest.raises(CheckFailed, match="above k_max"):
        checks.check_engine_step(eng, capacity)


def _kpi(n=4000):
    model = scenario_from_dict({
        "network": CORRIDOR,
        "sim": {"dt_s": 1.0, "t_sim_s": 10.0},
        "traffic": {"n_vel": 0, "p_user": 0.0},
        "latency": inputs.kpi_latency_block(),
    }).latency
    samples = comms.collect_latency_samples(model, comms.FlowStreams(7), n)
    report = comms.kpi_report(samples, comms.KpiBudget(), pdr_ssms=model.pdr_ssms,
                              pdr_info=model.pdr_info, deadline_v_free_mps=20 / 3.6)
    return samples, report


def test_kpi_check_rejects_draw_out_of_range():
    samples, report = _kpi()
    checks.check_kpi(samples, report, inputs.FLOWS_MS, 4000)
    samples["twin_total"][17] = 0.15516  # above 153.41 + 1.74 ms
    with pytest.raises(CheckFailed, match="twin_total: draws span"):
        checks.check_kpi(samples, report, inputs.FLOWS_MS, 4000)


def test_kpi_check_rejects_biased_mean_and_stale_report():
    samples, report = _kpi()
    lo, hi = inputs.FLOWS_MS["v2c"]
    samples["info_e2e"] = [x + 0.002 if x * 1e3 + 2 < hi else x
                           for x in samples["info_e2e"]]
    with pytest.raises(CheckFailed, match="analytic"):
        checks.check_kpi(samples, report, inputs.FLOWS_MS, 4000)
    samples, _ = _kpi()
    _, other = _kpi(4000 - 1)
    with pytest.raises(CheckFailed, match="restate"):
        checks.check_kpi(samples, other, inputs.FLOWS_MS, 4000)


def _sweep_rows(seed=11):
    sc = scenario_from_dict({
        "network": CORRIDOR,
        "sim": {"dt_s": 1.0, "t_sim_s": 60.0, "seed": seed},
        "traffic": {"n_vel": 8, "p_user": 0.5},
        "latency": {"pdr_ssms": 1.0, "pdr_info": 1.0},
    })
    spec = sweep.SweepSpec(base=sc, param="p_user", values=(0.0, 1.0),
                           seeds_per_point=2)
    return sweep.run_sweep(spec)


FIELDS = tuple(f.name for f in dataclasses.fields(sim.MetricsSummary))[4:]


def test_sweep_check_rejects_wrong_aggregate():
    rows = _sweep_rows()
    checks.check_sweep(rows, "p_user", (0.0, 1.0), 2, 11, FIELDS)
    agg = rows[2]
    rows[2] = dataclasses.replace(agg, metrics=dataclasses.replace(
        agg.metrics, mean_tt_overall_s=agg.metrics.mean_tt_overall_s + 1e-6))
    with pytest.raises(CheckFailed, match="agg mean_tt_overall_s"):
        checks.check_sweep(rows, "p_user", (0.0, 1.0), 2, 11, FIELDS)


def test_sweep_check_rejects_wrong_seed():
    rows = _sweep_rows()
    rows[0] = dataclasses.replace(rows[0], seed=str(int(rows[0].seed) ^ 1))
    with pytest.raises(CheckFailed, match="seed"):
        checks.check_sweep(rows, "p_user", (0.0, 1.0), 2, 11, FIELDS)


def test_tracer_restores_functions_and_counts_engine_phases():
    from twinnav import nav

    original = nav.dijkstra_fastest
    tracer = tracing.Tracer()
    with tracer:
        assert nav.dijkstra_fastest is not original
        eng, _ = _corridor_engine()
    assert nav.dijkstra_fastest is original and sim.Engine.__dict__["_plan"].__name__ == "_plan"
    summary = tracer.summary()
    assert summary["spans"]["sim.Engine._plan"]["calls"] == eng.n_steps
    plan = summary["spans"]["sim.Engine._plan"]
    assert 0 < plan["self_ns"] < plan["total_ns"]
    metrics = tracing.layer_metrics(summary)
    assert metrics["sim.routes_applied"] > 0
    assert metrics["nav.routes_planned"] >= metrics["sim.routes_applied"]


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    layer = set(tracing.layer_metrics({"spans": {}, "counters": {}}))
    layer |= {"service.overhead_us", "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in bench["per_layer"])


def test_workload_inputs_are_fixed_by_the_seed(tmp_path):
    import workloads

    def args(seed):
        return workloads.RunArgs("", seed, 1.0, os.path.dirname(HERE), str(tmp_path))

    svc = workloads.RouteService(args(1))
    assert not set(svc.incident_links) & set(svc.free_pairs)
    assert not set(svc.incident_nodes) & set(svc.free_nodes)
    covered = {p for _, links in svc.rsus for p in links}
    assert set(svc.incident_links) <= covered
    again = workloads.RouteService(args(1))
    assert [svc._rsu_update(11.0, 5), svc._cav_update(11.0)] == \
        [again._rsu_update(11.0, 5), again._cav_update(11.0)]
    assert svc._cav_update(11.0) != workloads.RouteService(args(2))._cav_update(11.0)
    trend = workloads.TrendSweep(args(1))
    assert trend.n_vel == 300 and len(trend.net.links) == 504
    metro = workloads.MetroGrid(args(1))
    assert metro.n_vel == 3000 and len(metro.net.links) == 2242
