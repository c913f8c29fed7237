import io
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinnav import nav, sim
from twinnav.comms import check_deadline, deliver, sample_service_latency
from twinnav.errors import ContractError, DegenerateRouteRequest
from twinnav.netgen import generate_grid_network
from twinnav.network import network_from_dict
from twinnav.scenario import scenario_from_dict
from twinnav.sim import CAV, Engine, MetricsSummary, poisson_draw, run
from twinnav.sweep import SweepSpec, run_sweep
from twinnav.twin import TwinState

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
    assert net.static_route(1, 4) == [1, 3, 4]


def test_shortest_distance_route_single_path(corridor_net):
    assert corridor_net.static_route(1, 4) == [1, 2, 3, 4]


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
    assert net.static_route(1, 4) == [1, 2, 4]


def test_shortest_distance_route_unreachable(corridor_net):
    assert corridor_net.static_route(4, 1) is None


def test_shortest_distance_route_rejects_like_the_planner(corridor_net):
    with pytest.raises(DegenerateRouteRequest):
        corridor_net.static_route(2, 2)
    for start, end in ((1, 0), (1, -1), (1, 5), (0, 2)):
        with pytest.raises(ContractError):
            corridor_net.static_route(start, end)


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
    """Conservation, queue bookkeeping, the capacity gate, nothing recorded
    for a vehicle that has not entered the network, and the packed state:
    the slots hold exactly the vehicles on links, each queue's positions do
    not increase from head to tail (the head-only transfer relies on it), and
    the waiting list holds the rest of the live vehicles in vid order."""
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
            assert veh.link_idx is None
            assert veh.arrival_step <= step and veh.vid not in on_link
        elif veh.link_idx is None:
            waiting += 1
            assert veh.vid not in on_link
            assert not veh.encountered and not veh.blocked  # still at its origin
        else:
            assert on_link.get(veh.vid) == veh.link_idx
    assert waiting + len(on_link) + arrived == eng._spawned
    n = eng._on
    slot_vids = eng._vid[:n].tolist()
    assert sorted(slot_vids) == sorted(on_link)
    lengths = eng.net.lengths
    for k, vid in enumerate(slot_vids):
        veh = vehicles[vid - 1]
        assert veh.slot == k
        assert eng._link[k] == veh.link_idx
        assert eng._cav[k] == (veh.klass == CAV)
        assert 0.0 <= eng._pos[k] <= lengths[veh.link_idx]
    assert all(veh.slot is None for veh in vehicles if veh.link_idx is None)
    for q in eng.link_queues:
        positions = [eng.position(veh) for veh in q]
        assert positions == sorted(positions, reverse=True)
    assert eng._waiting == [v for v in vehicles
                            if v.link_idx is None and v.arrival_step is None]


def test_conservation_and_capacity_every_step():
    doc = corridor_doc(n=5, k_max=0.05)  # tight capacity forces queueing
    sc = make_scenario(
        doc,
        traffic={"n_vel": 30, "p_user": 0.4},
        sim={"dt_s": 1.0, "t_sim_s": 200.0, "seed": 5},
        sensing={"rsus": [{"node": 1, "radius_m": 10000}]},
        # Both close link (3, 4), the gathering at its head node.
        events=[{"kind": "accident", "link": [3, 4], "onset_s": 40, "end_s": 90},
                {"kind": "gathering", "node": 4, "onset_s": 40, "end_s": 90}],
    )
    steps_on_closed, waited_at_end = Counter(), set()

    def on_step(eng, step):
        check_step_invariants(eng, step)
        closed, feeder = eng.net.link_index[(3, 4)], eng.net.link_index[(2, 3)]
        if not eng.closed[closed]:
            return
        steps_on_closed.update(veh.vid for veh in eng.link_queues[closed])
        end = eng.net.lengths[feeder] - sim._END_EPS
        for veh in eng.link_queues[feeder]:
            if eng.position(veh) >= end and veh.route.nodes[-1] != 3:
                waited_at_end.add(veh.vid)  # its next link is the closed one

    eng = Engine(sc, on_step=on_step)
    m = eng.run()
    assert m.completed_cav + m.completed_unconnected > 0
    vehicles = eng.vehicles
    # Standing on the closed link for many steps counts each event once.
    assert max(steps_on_closed.values()) >= 10
    for vid in steps_on_closed:
        assert vehicles[vid - 1].encountered == {0, 1}
    # Waiting at the end of an open link to enter it blocks but meets no event.
    assert waited_at_end - set(steps_on_closed)
    for vid in waited_at_end - set(steps_on_closed):
        assert not vehicles[vid - 1].encountered
    # The events cleared at step 90 of 200, and blocking stays set.
    for vid in waited_at_end | set(steps_on_closed):
        assert vehicles[vid - 1].blocked


def draw_grid_scenario(data, rsu_count, radius_m, pdr_ssms):
    """A random 2x2 to 4x4 grid with tight jam capacity, random connected
    share and demand, timed accidents and gatherings, `rsu_count` RSUs and
    lossy route responses."""
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
    return make_scenario(
        net_doc,
        sim={"dt_s": 1.0, "t_sim_s": float(t_sim), "seed": data.draw(st.integers(0, 99))},
        traffic={"n_vel": data.draw(st.integers(0, 80)),
                 "p_user": data.draw(st.floats(0.0, 1.0))},
        latency={"pdr_ssms": data.draw(pdr_ssms),
                 "pdr_info": data.draw(st.floats(0.5, 1.0))},
        sensing={"rsus": [{"node": data.draw(st.integers(1, m)),
                           "radius_m": data.draw(radius_m)}
                          for _ in range(data.draw(rsu_count))]},
        events=events,
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_engine_invariants_on_random_grids(data):
    """Random small grids, one RSU, lossy route responses."""
    sc = draw_grid_scenario(data, rsu_count=st.just(1),
                            radius_m=st.floats(50.0, 400.0), pdr_ssms=st.just(1.0))
    Engine(sc, on_step=check_step_invariants).run()


class ReferenceEngine(Engine):
    """The engine step before planner rows were built on demand and patched,
    no-path pairs remembered, RSU readings batched, bookkeeping limited to
    closed links and vehicles packed into slots: fresh rows on every step,
    every live route offered to replan_affected, one twin ingest per
    delivered RSU, every live vehicle checked for encounters and blocking,
    and movement one vehicle at a time with positions kept per vid."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._positions = {}  # vid -> metres along its link, while on one

    def position(self, veh):
        return self._positions[veh.vid]

    def _live(self):
        return [veh for veh in self.vehicles if veh.arrival_step is None]

    def _move(self, step):
        """Advance every vehicle on every occupied link, try a head transfer
        on every occupied open link, then enter the routed vehicles still
        outside the network in vid order."""
        net = self.net
        dt = self.dt
        lengths = net.lengths.tolist()
        capacity = self.link_capacity.tolist()
        queues = self.link_queues
        counts = self.link_counts
        speeds = self.speeds.tolist()
        closed = self.closed.tolist()
        pos = self._positions
        occupied = np.flatnonzero(counts).tolist()
        for li in occupied:
            v = speeds[li]
            if v > 0.0:
                length = lengths[li]
                adv = v * dt
                for veh in queues[li]:
                    p = pos[veh.vid] + adv
                    pos[veh.vid] = p if p < length else length
        for li in occupied:
            dq = queues[li]
            if not dq or closed[li]:
                continue
            end = lengths[li] - sim._END_EPS
            while dq and pos[dq[0].vid] >= end:
                veh = dq[0]
                route = veh.route
                if route.cursor == len(route.nodes) - 1:
                    dq.popleft()
                    counts[li] -= 1
                    veh.link_idx = None
                    veh.arrival_step = step
                    del pos[veh.vid]
                    continue
                nxt = net.link_index[
                    (route.nodes[route.cursor], route.nodes[route.cursor + 1])]
                if counts[nxt] + 1 > capacity[nxt] - sim._CAP_EPS:
                    break
                dq.popleft()
                counts[li] -= 1
                counts[nxt] += 1
                route.cursor += 1
                veh.link_idx = nxt
                pos[veh.vid] = 0.0
                queues[nxt].append(veh)
        for veh in self._live():
            if veh.link_idx is not None or veh.route is None:
                continue
            first = net.link_index[(veh.route.nodes[0], veh.route.nodes[1])]
            if counts[first] + 1 > capacity[first] - sim._CAP_EPS:
                continue
            counts[first] += 1
            veh.link_idx = first
            pos[veh.vid] = 0.0
            queues[first].append(veh)

    def _sense_and_ingest(self, step):
        now = step * self.dt
        occupied = self.link_counts > 0
        self.last_sensed_volumes = self.link_counts.copy()
        model = self.scenario.latency
        ssms_rng = self.streams.rng("pdr_ssms")
        info_rng = self.streams.rng("pdr_info")
        for rsu_id, (link_idx, node_idx) in enumerate(self._rsu_cov):
            if not deliver(model.pdr_ssms, ssms_rng):
                continue
            self.twin.ingest_arrays(
                ("rsu", [rsu_id]), link_idx, self.link_counts[link_idx],
                self.speeds[link_idx], occupied[link_idx], node_idx,
                self.truth_density[node_idx], now,
            )
        cav_ids, cav_links = [], []
        for veh in self.vehicles:
            if veh.klass != CAV or veh.link_idx is None:
                continue
            if deliver(model.pdr_info, info_rng):
                cav_ids.append(veh.vid)
                cav_links.append(veh.link_idx)
        if cav_ids:
            li = np.array(cav_links, dtype=int)
            self.twin.ingest_arrays(
                ("cav", cav_ids), li, self.link_counts[li], self.speeds[li],
                occupied[li], np.empty(0, dtype=int), np.empty(0), now,
            )

    def _bookkeep(self, step):
        """Every live vehicle on every step: an encounter is occupying the
        event's link or any link into the event's node; blocked is standing
        on a closed link or at the end of a link whose next is closed."""
        lengths = self.net.lengths.tolist()
        closed = self.closed.tolist()
        for veh in self._live():
            li = veh.link_idx
            if li is None:
                continue
            route = veh.route
            veh.encountered.update(self._events_on_link.get(li, ()))
            veh.encountered.update(self._events_at_node.get(route.next_node, ()))
            blocked_now = closed[li]
            at_end = self.position(veh) >= lengths[li] - sim._END_EPS
            if not blocked_now and at_end and route.cursor < len(route.nodes) - 1:
                nxt = self.net.link_index[
                    (route.nodes[route.cursor], route.nodes[route.cursor + 1])]
                blocked_now = closed[nxt]
            if blocked_now:
                veh.blocked = True

    def _plan(self, step):
        net = self.net
        latency = self.scenario.latency
        rows = net.link_rows(nav.masked_journey_times(
            net, self.twin.link_volume, self.twin.event_nodes, self.twin.event_links
        ))
        inp = nav.PlanningInput(
            matrix=rows,
            new_users={v.vid: (v.origin, v.destination) for v in self._live()
                       if v.klass == CAV and v.link_idx is None},
        )
        fresh = nav.plan_new_users(inp)
        for vid in sorted(fresh.routes):
            route = fresh.routes[vid]
            veh = self.vehicles[vid - 1]
            t_svc = sample_service_latency(latency, self.streams, self.single_v2c)
            if not deliver(latency.pdr_info, self.streams.rng("pdr_info")):
                continue
            first = net.link_between(route.nodes[0], route.nodes[1])
            if not check_deadline(t_svc, first.v_free_mps):
                continue
            veh.route = route
            self._journal_route(step, veh, "new")
        current = {v.vid: v.route for v in self._live()
                   if v.klass == CAV and v.link_idx is not None and v.route is not None}
        replanned = nav.replan_affected(inp, current)
        for vid in sorted(replanned.routes):
            veh = self.vehicles[vid - 1]
            t_svc = sample_service_latency(latency, self.streams, self.single_v2c)
            if not deliver(latency.pdr_info, self.streams.rng("pdr_info")):
                continue
            v_now = self.speeds[veh.link_idx]
            if v_now > 0:
                budget = (net.lengths[veh.link_idx] - self.position(veh)) / v_now
                if t_svc > budget:
                    continue
            veh.route = nav.spliced_route(veh.route, replanned.routes[vid])
            self._journal_route(step, veh, "replan")


def run_outputs(engine_cls, scenario):
    """Everything a run leaves that the step phases decide: the metrics row,
    both journals, the twin's final arrays and source stamps, and each
    vehicle's encounters and blocking (which the row's rounding could hide)."""
    twin_journal, routes_journal = io.StringIO(), io.StringIO()
    eng = engine_cls(scenario,
                     on_step=sim.journal_writer(twin_journal, routes_journal))
    row = eng.run().csv_row()
    twin = eng.twin
    per_vehicle = [(v.vid, sorted(v.encountered), v.blocked) for v in eng.vehicles]
    return (row, twin_journal.getvalue(), routes_journal.getvalue(),
            twin.link_volume.tobytes(),
            twin.low_speed_since.tobytes(), twin.last_update, per_vehicle)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_engine_matches_reference_step(data):
    """Patched rows only on steps that search, the no-path memo, re-checking
    only candidate routes, one RSU ingest per step and bookkeeping on closed
    links leave every output as fresh rows on every step, one ingest per RSU
    and a walk over every live vehicle did."""
    sc = draw_grid_scenario(data, rsu_count=st.integers(2, 3),
                            radius_m=st.floats(150.0, 400.0),
                            pdr_ssms=st.floats(0.5, 1.0))
    assert run_outputs(Engine, sc) == run_outputs(ReferenceEngine, sc)


# ------------------------------------------------- caches and per-step counts


def lossy_grid_doc(**overrides):
    """6x6 grid, three overlapping lossy RSUs, six timed random incidents."""
    doc = {
        "network": generate_grid_network(rows=6, cols=6, n_links=160, seed=4),
        "sim": {"dt_s": 1.0, "t_sim_s": 300.0, "seed": 4},
        "traffic": {"n_vel": 300, "p_user": 0.6},
        "events_random": {"count": 6, "onset_max_s": 200.0, "duration_s": 120.0},
        "sensing": {"rsus": [{"node": n, "radius_m": 250.0} for n in (8, 17, 29)]},
        "latency": {"pdr_ssms": 0.8, "pdr_info": 0.9},
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_engine_matches_reference_step_on_a_lossy_grid(seed):
    """Longer routes than the random grids give: a flag several links ahead."""
    sc = scenario_from_dict(lossy_grid_doc()).with_seed(seed)
    assert run_outputs(Engine, sc) == run_outputs(ReferenceEngine, sc)


@pytest.mark.parametrize("seed", [1, 2])
def test_engine_matches_reference_step_on_a_jammed_grid(seed):
    """Jam capacity of 2 to 4 vehicles a link: queues back up to link ends,
    so events close links whose head waits at the end, which must then
    release nobody until the event ends."""
    doc = lossy_grid_doc(
        network=generate_grid_network(rows=6, cols=6, n_links=160, seed=4,
                                      k_max_veh_per_m=0.02),
        traffic={"n_vel": 600, "p_user": 0.6},
    )
    sc = scenario_from_dict(doc).with_seed(seed)
    assert run_outputs(Engine, sc) == run_outputs(ReferenceEngine, sc)


def test_cache_warm_network_runs_like_a_fresh_one():
    warm = scenario_from_dict(lossy_grid_doc())
    run(warm)  # fills the network's static-route cache
    assert warm.network._static_preds
    fresh = scenario_from_dict(lossy_grid_doc())
    assert not fresh.network._static_preds
    assert run_outputs(Engine, warm) == run_outputs(Engine, fresh)


def test_second_run_on_a_network_searches_no_static_tree(monkeypatch):
    searches = []
    original = nav.shortest_path_tree

    def counted(*args, **kwargs):
        searches.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(nav, "shortest_path_tree", counted)
    sc = scenario_from_dict(lossy_grid_doc())
    first = run(sc).csv_row()
    assert searches and len(searches) == len(set(searches))  # once per origin
    searches.clear()
    assert run(sc).csv_row() == first
    assert searches == []


def test_rows_only_on_steps_that_search_and_two_ingests_per_step(monkeypatch):
    # Few connected users: most steps have no one to route or re-route.
    sc = scenario_from_dict(lossy_grid_doc(traffic={"n_vel": 60, "p_user": 0.2}))
    eng = Engine(sc)
    rows_steps, search_steps, ingest_steps = [], [], []

    def spy(cls_or_module, name, record):
        original = getattr(cls_or_module, name)

        def wrapper(*args, **kwargs):
            record(eng.step)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls_or_module, name, wrapper)

    spy(nav.PlannerState, "rows", rows_steps.append)  # built once, then patched
    spy(nav, "dijkstra_fastest", search_steps.append)
    spy(TwinState, "ingest_arrays", ingest_steps.append)
    eng.run()
    assert search_steps  # the scenario does route someone
    assert len(rows_steps) == len(set(rows_steps))  # rows at most once a step
    assert set(rows_steps) <= set(search_steps)
    assert len(rows_steps) < sc.sim.n_steps / 2
    assert ingest_steps and max(Counter(ingest_steps).values()) <= 2


def test_cut_off_pair_searched_again_only_after_the_blocked_set_changes(monkeypatch):
    """A waiting user whose destination no finite chain of links reaches is
    searched once; later steps answer it from the memo until the +inf link
    set changes."""
    sc = scenario_from_dict(lossy_grid_doc(traffic={"n_vel": 300, "p_user": 1.0}))
    eng = Engine(sc)
    remembered: set = set()  # cut-off pairs searched since the last change
    waits = []  # cut-off pairs still waiting at the start of a later step
    update, search = nav.PlannerState.update, nav.dijkstra_fastest

    def spied_update(state, times):
        changed = update(state, times)
        if changed:
            remembered.clear()
        waits.extend(p for v in eng.vehicles if v.klass == CAV and v.link_idx is None
                     and v.arrival_step is None
                     and (p := (v.origin, v.destination)) in remembered)
        return changed

    def spied_search(rows, start, end):
        found = search(rows, start, end)
        if found is None:
            assert (start, end) not in remembered, f"step {eng.step}: searched again"
            remembered.add((start, end))
        return found

    monkeypatch.setattr(nav.PlannerState, "update", spied_update)
    monkeypatch.setattr(nav, "dijkstra_fastest", spied_search)
    eng.run()
    assert len(waits) > 10  # users did wait on a remembered pair


def test_replan_candidates_find_what_a_full_scan_finds(monkeypatch):
    """After every plan the re-planned set equals a scan of every live route
    against the +inf links. Tight capacity and lossy responses leave routed
    users waiting off the network across flag changes, so some enter with a
    route that already crosses a flagged link."""
    doc = lossy_grid_doc(
        network=generate_grid_network(rows=6, cols=6, n_links=160, seed=4,
                                      k_max_veh_per_m=0.02),
        traffic={"n_vel": 600, "p_user": 0.8},
        events_random={"count": 12, "onset_max_s": 250.0, "duration_s": 30.0},
        latency={"pdr_ssms": 0.8, "pdr_info": 0.3},
    )
    eng = Engine(scenario_from_dict(doc).with_seed(1))
    plan = Engine._plan
    steps = []

    def checked_plan(self, step):
        twin = self.twin
        times = nav.masked_journey_times(self.net, twin.link_volume,
                                         twin.event_nodes, twin.event_links)
        blocked = {self.net.pairs[i] for i in np.flatnonzero(np.isinf(times))}
        expected = {v.vid for v in self.vehicles
                    if v.klass == CAV and v.link_idx is not None
                    and not blocked.isdisjoint(v.route.remaining_links())}
        plan(self, step)
        assert {v.vid for v in self._replan_candidates} == expected, step
        steps.append(bool(expected))

    monkeypatch.setattr(Engine, "_plan", checked_plan)
    eng.run()
    assert sum(steps) > 20  # routes did cross flagged links


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
    c = run(sc.with_seed(78))
    assert c != a


def test_single_v2c_mode_counts_one_leg_against_the_deadline(monkeypatch):
    """At v_free 5 m/s the new-route deadline is 0.82 s: above the largest
    one-leg service latency of the default model (810.97 ms) and inside the
    two-leg range (759.84-853.10 ms). Only two legs can miss it."""
    doc = corridor_doc()
    for item in doc["links"]:
        item["v_free_mps"] = 5.0
    sc = make_scenario(doc, traffic={"n_vel": 20, "p_user": 1.0})
    assert sc.latency.service_bounds_s(single_v2c=True)[1] < 0.82 \
        < sc.latency.service_bounds_s()[1]
    rejected = []

    def counted(t_svc_s, v_free_mps):
        ok = check_deadline(t_svc_s, v_free_mps)
        if not ok:
            rejected.append(t_svc_s)
        return ok

    monkeypatch.setattr(sim, "check_deadline", counted)
    two_legs = run(sc)
    assert rejected
    rejected.clear()
    one_leg = run(sc, single_v2c=True)
    assert rejected == []
    assert one_leg.completed_cav >= 1 and two_legs.completed_cav >= 1
    rows = run_sweep(SweepSpec(base=sc, param="p_user", values=(1.0,)),
                     single_v2c=True)
    assert rows[0].metrics.completed_cav >= 1 and rejected == []


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
