import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinnav.errors import ContractError, DegenerateRouteRequest
from twinnav.nav import (
    INF,
    PlannerState,
    PlanningInput,
    Route,
    dijkstra_fastest,
    fastest_unless_cut_off,
    mask_events,
    masked_journey_times,
    plan_new_users,
    replan_affected,
    request_distance,
    spliced_route,
)
from twinnav.netgen import generate_grid_network
from twinnav.network import MAX_LENGTH_M, MAX_NODES, MAX_V_FREE_MPS, \
    SPEED_FLOOR_MPS, build_journey_matrix, network_from_dict


def matrix_from_edges(n, edges):
    m = np.full((n + 1, n + 1), INF)
    for (i, j), w in edges.items():
        m[i, j] = w
    return m


def diamond_matrix():
    # 1->2->4 costs 10+10, 1->3->4 costs 5+20; 2->3 chord for re-planning.
    return matrix_from_edges(
        4, {(1, 2): 10.0, (2, 4): 10.0, (1, 3): 5.0, (3, 4): 20.0, (2, 3): 12.0}
    )


# ------------------------------------------------------------------- dijkstra


def test_dijkstra_two_nodes():
    m = matrix_from_edges(2, {(1, 2): 10.0})
    found = dijkstra_fastest(m, 1, 2)
    assert list(found.nodes) == [1, 2] and found.cost == 10.0


def test_dijkstra_diamond_prefers_cheaper_total():
    found = dijkstra_fastest(diamond_matrix(), 1, 4)
    assert list(found.nodes) == [1, 2, 4] and found.cost == 20.0


def test_dijkstra_unreachable():
    m = matrix_from_edges(4, {(1, 2): 1.0, (3, 4): 1.0})
    assert dijkstra_fastest(m, 1, 4) is None


def test_dijkstra_degenerate_request():
    m = matrix_from_edges(2, {(1, 2): 1.0})
    with pytest.raises(DegenerateRouteRequest):
        dijkstra_fastest(m, 1, 1)


def test_dijkstra_bad_node_id():
    m = matrix_from_edges(2, {(1, 2): 1.0})
    with pytest.raises(ContractError):
        dijkstra_fastest(m, 1, 5)


def test_dijkstra_equal_cost_prefers_lower_node_id():
    # Two equal paths 1->2->4 and 1->3->4: the lower middle node wins.
    m = matrix_from_edges(4, {(1, 2): 5.0, (2, 4): 5.0, (1, 3): 5.0, (3, 4): 5.0})
    found = dijkstra_fastest(m, 1, 4)
    assert list(found.nodes) == [1, 2, 4]


def random_masked_matrix(rng, n, n_edges, integer_weights=False):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = {}
    for pair in rng.sample(pairs, min(n_edges, len(pairs))):
        w = rng.randrange(1, 100) if integer_weights else rng.uniform(1.0, 100.0)
        edges[pair] = float(w)
    m = matrix_from_edges(n, edges)
    event_nodes = {v for v in range(1, n + 1) if rng.random() < 0.15}
    event_links = {p for p in edges if rng.random() < 0.15}
    return mask_events(m, event_nodes, event_links), event_nodes, event_links


def brute_force_min_cost(matrix, start, end):
    """Exhaustive simple-path enumeration; the independent oracle."""
    n = len(matrix) - 1
    best = INF
    stack = [(start, {start}, 0.0)]
    while stack:
        node, seen, cost = stack.pop()
        if node == end:
            best = min(best, cost)
            continue
        row = matrix[node]
        for nxt in range(1, n + 1):
            w = row[nxt]
            if w == INF or nxt in seen:
                continue
            stack.append((nxt, seen | {nxt}, cost + w))
    return best


def test_dijkstra_matches_brute_force_small_batch():
    rng = random.Random(20240601)
    for _ in range(60):
        n = rng.randrange(2, 9)
        masked, ev_nodes, ev_links = random_masked_matrix(rng, n, rng.randrange(1, 21))
        start = rng.randrange(1, n + 1)
        end = rng.randrange(1, n + 1)
        if start == end:
            continue
        oracle = brute_force_min_cost(masked.tolist(), start, end)
        found = dijkstra_fastest(masked, start, end)
        if found is None:
            assert oracle == INF
        else:
            assert found.cost == oracle  # exact, no tolerance
            for a, b in zip(found.nodes, found.nodes[1:]):
                assert (a, b) not in ev_links
            assert not (set(found.nodes) - {start}) & ev_nodes


def test_scale_invariance_of_routes():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(3, 9)
        masked, _, _ = random_masked_matrix(
            rng, n, rng.randrange(2, 21), integer_weights=True
        )
        start, end = 1, n
        base = dijkstra_fastest(masked, start, end)
        for c in (2.0, 3.0, 0.5, 7.0):
            scaled = np.where(np.isfinite(masked), masked * c, INF)
            other = dijkstra_fastest(scaled, start, end)
            if base is None:
                assert other is None
            else:
                assert list(other.nodes) == list(base.nodes)


# -------------------------------------------------------------------- masking


def test_mask_events_node_masks_incoming_column():
    masked = mask_events(diamond_matrix(), {4}, set())
    assert masked[2, 4] == INF and masked[3, 4] == INF
    assert masked[1, 2] == 10.0 and masked[1, 3] == 5.0  # untouched


def test_mask_events_link_masks_single_entry():
    masked = mask_events(diamond_matrix(), set(), {(1, 2)})
    assert masked[1, 2] == INF
    assert masked[2, 4] == 10.0


def test_mask_events_empty_is_identity():
    m = diamond_matrix()
    assert np.array_equal(mask_events(m, set(), set()), m)


def test_mask_events_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 8)
        masked, ev_nodes, ev_links = random_masked_matrix(rng, n, 12)
        again = mask_events(masked, ev_nodes, ev_links)
        assert np.array_equal(masked, again)


def test_mask_allows_departing_from_event_node():
    # A user standing at a flagged node may still leave it.
    masked = mask_events(diamond_matrix(), {2}, set())
    found = dijkstra_fastest(masked, 2, 4)
    assert list(found.nodes) == [2, 4]


# ------------------------------------------------------------------- planning


def test_plan_new_users_routes_and_unreachable():
    masked = mask_events(diamond_matrix(), {4}, set())
    inp = PlanningInput(matrix=masked, new_users={11: (1, 4), 12: (1, 3)})
    out = plan_new_users(inp)
    assert out.unreachable == {11}  # every way into 4 is masked
    assert list(out.routes[12].nodes) == [1, 3]


def test_plan_new_users_same_od_same_route():
    inp = PlanningInput(matrix=diamond_matrix(), new_users={5: (1, 4), 9: (1, 4)})
    out = plan_new_users(inp)
    assert list(out.routes[5].nodes) == list(out.routes[9].nodes) == [1, 2, 4]


def test_replan_affected_diamond():
    masked = mask_events(diamond_matrix(), set(), {(2, 4)})
    routes = {1: Route(nodes=[1, 2, 4], vehicle_id=1, cursor=1)}
    out = replan_affected(PlanningInput(matrix=masked), routes)
    assert list(out.routes[1].nodes) == [2, 3, 4]


def test_replan_skips_unaffected_and_passed_users():
    masked = mask_events(diamond_matrix(), set(), {(2, 4)})
    routes = {
        1: Route(nodes=[1, 3, 4], vehicle_id=1, cursor=1),  # avoids the closure
        2: Route(nodes=[1, 2, 4], vehicle_id=2, cursor=2),  # already on (2,4)
    }
    out = replan_affected(PlanningInput(matrix=masked), routes)
    assert out.routes == {} and out.unreachable == set()


def test_replan_unreachable_keeps_old_route():
    # Mask every link into 4: the user cannot be re-routed.
    masked = mask_events(diamond_matrix(), {4}, set())
    routes = {3: Route(nodes=[1, 2, 4], vehicle_id=3, cursor=1)}
    out = replan_affected(PlanningInput(matrix=masked), routes)
    assert out.unreachable == {3} and out.routes == {}


def test_replan_minimality_random():
    rng = random.Random(99)
    m = diamond_matrix()
    all_routes = {
        1: Route(nodes=[1, 2, 4], vehicle_id=1, cursor=1),
        2: Route(nodes=[1, 3, 4], vehicle_id=2, cursor=1),
        3: Route(nodes=[1, 2, 3, 4], vehicle_id=3, cursor=2),
    }
    for _ in range(50):
        ev_links = {p for p in ((1, 2), (2, 4), (1, 3), (3, 4), (2, 3))
                    if rng.random() < 0.3}
        masked = mask_events(m, set(), ev_links)
        expected = {
            vid
            for vid, r in all_routes.items()
            if any(masked[a, b] == INF for a, b in r.remaining_links())
        }
        out = replan_affected(PlanningInput(matrix=masked), all_routes)
        assert set(out.routes) | out.unreachable == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_journey_rows_plan_like_the_dense_matrix(data):
    """Sparse rows against the dense reference on random grids, with volumes
    from empty to past jam density, flagged nodes and flagged links."""
    rows, cols = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    ortho = rows * (cols - 1) + cols * (rows - 1)
    extra = data.draw(st.integers(0, 2 * (rows - 1) * (cols - 1)))
    net = network_from_dict(generate_grid_network(
        rows=rows, cols=cols, n_links=2 * (ortho + extra),
        seed=data.draw(st.integers(0, 10_000)),
    ))
    m, n_links = net.node_count, net.link_count
    volumes = np.array(data.draw(st.lists(
        st.floats(0.0, 32.0), min_size=n_links, max_size=n_links)))
    event_nodes = set(data.draw(st.lists(st.integers(1, m), max_size=3)))
    event_links = set(data.draw(st.lists(st.integers(0, n_links - 1), max_size=4)))

    sparse = net.link_rows(masked_journey_times(net, volumes, event_nodes, event_links))
    dense = mask_events(
        build_journey_matrix(net, volumes), event_nodes,
        {net.links[i].pair for i in event_links},
    )
    assert all(sparse[u][v] == dense[u, v] for u, v in net.pairs)
    for start in range(1, m + 1):
        for end in range(1, m + 1):
            if start != end:
                assert dijkstra_fastest(sparse, start, end) == \
                    dijkstra_fastest(dense, start, end)

    free_flow = net.link_rows(
        masked_journey_times(net, np.zeros(n_links), set(), set()))
    routes = {}
    for vid in range(data.draw(st.integers(1, 6))):
        start, end = data.draw(st.sampled_from(
            [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]))
        nodes = list(dijkstra_fastest(free_flow, start, end).nodes)
        cursor = data.draw(st.integers(1, len(nodes) - 1))
        routes[vid] = Route(nodes=nodes, vehicle_id=vid, cursor=cursor)
    assert replan_affected(PlanningInput(matrix=sparse), routes) == \
        replan_affected(PlanningInput(matrix=dense), routes)


# --------------------------------------------------- planner across plans


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_planner_state_rows_equal_fresh_rows(data):
    """After any sequence of time vectors, some links toggling to and from
    +inf and rows read on some plans only, the patched rows equal fresh rows
    of the last vector and `blocked` is exactly its +inf links."""
    rows, cols = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    net = network_from_dict(generate_grid_network(
        rows=rows, cols=cols, n_links=2 * (rows * (cols - 1) + cols * (rows - 1)),
        seed=data.draw(st.integers(0, 10_000))))
    n_links = net.link_count
    state = PlannerState(net)
    times = np.full(n_links, 10.0)
    previous = set()
    value = st.sampled_from([INF, INF, 0.5, 10.0, 12.25]) | st.floats(0.1, 1e6)
    for _ in range(data.draw(st.integers(1, 12))):
        times = times.copy()
        for i in data.draw(st.lists(st.integers(0, n_links - 1), max_size=n_links)):
            times[i] = data.draw(value)
        reblocked = state.update(times)
        blocked = {net.pairs[i] for i in np.flatnonzero(np.isinf(times))}
        assert reblocked == (blocked != previous)
        previous = blocked
        assert state.blocked == blocked
        if data.draw(st.booleans()):
            assert state.rows() == net.link_rows(times)
    assert state.rows() == net.link_rows(times)


def test_planner_state_clears_the_memo_only_when_blocked_changes(diamond_net):
    state = PlannerState(diamond_net)
    times = np.full(diamond_net.link_count, 10.0)
    times[diamond_net.in_links[4]] = INF
    assert state.update(times)
    assert fastest_unless_cut_off(state.rows(), 1, 4, state.no_path) is None
    assert state.no_path == {(1, 4)}
    times = times * 2  # finite times change, the +inf set stands
    assert not state.update(times)
    assert state.no_path == {(1, 4)}
    times[diamond_net.link_index[(2, 4)]] = 5.0
    assert state.update(times)
    assert state.no_path == set()
    assert fastest_unless_cut_off(state.rows(), 1, 4, state.no_path).nodes == (1, 2, 4)


def test_memo_keeps_every_pair_its_search_finds_no_path_for():
    """The search alone decides: 1 -> 2 -> 3 costs 1e308 + 1e308 = +inf, so
    the pair is remembered like the pair with no link at all. Masked journey
    times never sum so high (see the next test)."""
    rows = [{}, {2: 1e308}, {3: 1e308}, {}]
    no_path = set()
    assert fastest_unless_cut_off(rows, 1, 3, no_path) is None
    assert fastest_unless_cut_off(rows, 3, 1, no_path) is None
    assert no_path == {(1, 3), (3, 1)}
    out = plan_new_users(PlanningInput(matrix=rows, new_users={1: (1, 3), 2: (3, 1)}))
    assert out.unreachable == {1, 2}


def test_journey_time_sums_stay_far_inside_float_range():
    """A finite masked journey time is below MAX_LENGTH_M / SPEED_FLOOR_MPS
    and a path has fewer than MAX_NODES links, so no path of finite links
    sums to +inf and a search that finds no path proves the pair cut off.
    Raising a cap far enough to break that fails here."""
    assert MAX_LENGTH_M / SPEED_FLOOR_MPS * MAX_NODES < sys.float_info.max / 1e100


def finite_reach(net, times, start):
    """Nodes that a chain of finite links leads to from `start`."""
    out = {u: [] for u in range(1, net.node_count + 1)}
    for (u, v), t in zip(net.pairs, times.tolist()):
        if t != INF:
            out[u].append(v)
    seen, stack = {start}, [start]
    while stack:
        for v in out[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memo_holds_no_pair_a_chain_of_finite_links_joins(data):
    """Plans on random grids whose links reach the range limits (1e6 m at a
    free-flow speed just above the floor, or at the top speed), with volumes
    past jam and random flags: after every query, no remembered pair has a
    path on the current rows, and no chain of finite links joins it."""
    n_rows, n_cols = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    doc = generate_grid_network(
        rows=n_rows, cols=n_cols,
        n_links=2 * (n_rows * (n_cols - 1) + n_cols * (n_rows - 1)),
        seed=data.draw(st.integers(0, 10_000)))
    for item in doc["links"]:
        item.update(data.draw(st.sampled_from([
            {},
            {"length_m": MAX_LENGTH_M, "v_free_mps": SPEED_FLOOR_MPS * 1.5},
            {"length_m": MAX_LENGTH_M, "v_free_mps": MAX_V_FREE_MPS},
        ])))
    net = network_from_dict(doc)
    m, n_links = net.node_count, net.link_count
    pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
    volume = st.sampled_from([0.0, 0.0, 0.1]) | st.floats(0.0, 32.0)
    state = PlannerState(net)
    for _ in range(data.draw(st.integers(1, 6))):
        state.update(masked_journey_times(
            net,
            np.array(data.draw(st.lists(volume, min_size=n_links, max_size=n_links))),
            set(data.draw(st.lists(st.integers(1, m), max_size=3))),
            set(data.draw(st.lists(st.integers(0, n_links - 1), max_size=4)))))
        for _ in range(data.draw(st.integers(1, 8))):
            a, b = data.draw(st.sampled_from(pairs))
            found = fastest_unless_cut_off(state.rows(), a, b, state.no_path)
            assert (found is None) == ((a, b) in state.no_path)
            fresh = net.link_rows(state.times)
            for start, end in state.no_path:
                assert dijkstra_fastest(fresh, start, end) is None
                assert end not in finite_reach(net, state.times, start)


def test_remembered_pairs_are_not_searched(monkeypatch):
    from twinnav import nav
    masked = mask_events(diamond_matrix(), {4}, set())
    searches = []
    original = nav.dijkstra_fastest

    def counted(matrix, start, end):
        searches.append((start, end))
        return original(matrix, start, end)

    monkeypatch.setattr(nav, "dijkstra_fastest", counted)
    inp = PlanningInput(matrix=masked, new_users={1: (1, 4), 2: (1, 4), 3: (1, 3)})
    assert plan_new_users(inp).unreachable == {1, 2}
    assert searches == [(1, 4), (1, 3)] and inp.no_path == {(1, 4)}
    routes = {4: Route(nodes=[1, 2, 4], vehicle_id=4), 5: Route(nodes=[1, 3, 4], vehicle_id=5)}
    searches.clear()
    out = replan_affected(PlanningInput(matrix=masked, no_path={(2, 4)}), routes)
    assert out.unreachable == {4, 5} and searches == [(3, 4)]


def test_spliced_route_keeps_history():
    old = Route(nodes=[1, 2, 4], vehicle_id=9, cursor=1)
    new = Route(nodes=[2, 3, 4], vehicle_id=9)
    merged = spliced_route(old, new)
    assert merged.nodes == [1, 2, 3, 4] and merged.cursor == 1


def test_route_validation():
    with pytest.raises(ContractError):
        Route(nodes=[1])
    with pytest.raises(ContractError):
        Route(nodes=[1, 2], cursor=2)
    with pytest.raises(ContractError):
        Route(nodes=[1, 2], cursor=0)


# ------------------------------------------------------------ request distance


def test_request_distance_reference_values():
    assert request_distance(5.556) == pytest.approx(5.062, abs=1e-3)
    assert request_distance(0.0) == 0.0
    assert request_distance(10.0) == pytest.approx(16.40, abs=1e-2)
