import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinnav.errors import ContractError
from twinnav.twin import (
    EventThresholds,
    TwinState,
    clear_resolved_events,
    detect_accident,
    detect_pedestrian_gathering,
)

from conftest import diamond_doc
from twinnav.network import network_from_dict

TH = EventThresholds(density_threshold=0.5, speed_threshold=0.5, accident_window_s=10.0)


@pytest.fixture
def net():
    return network_from_dict(diamond_doc())


RSU = ("rsu", [0])
NO_IDS, NO_VALUES = np.empty(0, dtype=np.intp), np.empty(0)


def read_link(state, pair, volume, now, speed=5.0, occupied=None, source=RSU):
    occ = occupied if occupied is not None else volume > 0
    state.ingest_arrays(source, np.array([state.net.link_index[pair]]),
                        np.array([volume], dtype=float), np.array([speed], dtype=float),
                        np.array([occ]), NO_IDS, NO_VALUES, now)


def read_node(state, node, density, now):
    state.ingest_arrays(RSU, NO_IDS, NO_VALUES, NO_VALUES, NO_VALUES, np.array([node]),
                        np.array([density], dtype=float), now)


def test_ingest_overwrites_when_delivered(net):
    state = TwinState(net, TH)
    read_link(state, (1, 2), 3, now=1.0)
    assert state.link_volume[net.link_index[(1, 2)]] == 3
    assert state.last_update[("rsu", 0)] == 1.0


def test_ingest_last_writer_wins(net):
    state = TwinState(net, TH)
    read_link(state, (1, 2), 4, now=1.0)
    read_link(state, (1, 2), 1, now=1.0, source=("cav", [7]))
    assert state.link_volume[net.link_index[(1, 2)]] == 1


def test_batched_ingest_equals_one_call_per_source(net):
    """Vehicles 3, 5 and 8 on links 0, 2 and 0 (slow and occupied), then
    vehicle 5 alone reports link 2 free: batched and one-by-one agree."""
    ids, links = [3, 5, 8], [0, 2, 0]
    vols, speeds, occ = [2.0, 1.0, 2.0], [0.1, 0.2, 0.1], [True, True, True]
    one, batch = TwinState(net, TH), TwinState(net, TH)
    for k in range(3):
        one.ingest_arrays(("cav", [ids[k]]), np.array([links[k]]), np.array([vols[k]]),
                          np.array([speeds[k]]), np.array([occ[k]]), NO_IDS, NO_VALUES, 4.0)
    batch.ingest_arrays(("cav", ids), np.array(links), np.array(vols),
                        np.array(speeds), np.array(occ), NO_IDS, NO_VALUES, 4.0)
    for state in (one, batch):
        state.ingest_arrays(("cav", [5]), np.array([2]), np.array([0.0]),
                            np.array([9.0]), np.array([False]), NO_IDS, NO_VALUES, 5.0)
    assert one.last_update == batch.last_update == {
        ("cav", 3): 4.0, ("cav", 5): 5.0, ("cav", 8): 4.0}
    assert np.array_equal(one.link_volume, batch.link_volume)
    assert np.array_equal(one.low_speed_since, batch.low_speed_since, equal_nan=True)
    assert batch.low_speed_since[0] == 4.0


def test_timestamps_never_decrease(net):
    state = TwinState(net, TH)
    last = 0.0
    for t in (0.0, 1.0, 1.0, 5.0, 9.0):
        read_link(state, (1, 2), 1, now=t)
        assert state.last_update[("rsu", 0)] >= last
        last = state.last_update[("rsu", 0)]


def test_gathering_detection_strict_threshold(net):
    state = TwinState(net, TH)
    read_node(state, 3, 0.6, now=0.0)
    assert detect_pedestrian_gathering(state) == {3}
    assert state.event_nodes == {3}

    state2 = TwinState(net, TH)
    read_node(state2, 3, 0.5, now=0.0)
    assert detect_pedestrian_gathering(state2) == set()  # boundary excluded

    state3 = TwinState(net, TH)
    assert detect_pedestrian_gathering(state3) == set()  # nothing observed


def test_accident_detection_needs_full_window(net):
    state = TwinState(net, TH)
    for t in (0.0, 5.0, 10.0):
        read_link(state, (1, 2), 2, now=t, speed=0.1)
        flagged = detect_accident(state, now=t)
    assert flagged == {net.link_index[(1, 2)]}
    assert state.event_link_pairs() == {(1, 2)}


def test_accident_detection_interrupted_run(net):
    state = TwinState(net, TH)
    for t, speed in ((0.0, 0.1), (5.0, 3.0), (10.0, 0.1)):
        read_link(state, (1, 2), 2, now=t, speed=speed)
        detect_accident(state, now=t)
    assert state.event_link_pairs() == set()  # the fast reading broke the run


def test_accident_detection_ignores_empty_links(net):
    state = TwinState(net, TH)
    for t in (0.0, 5.0, 10.0, 15.0):
        read_link(state, (1, 2), 0, now=t, speed=0.0, occupied=False)
        detect_accident(state, now=t)
    assert state.event_link_pairs() == set()


def test_twin_volumes_defaults_and_staleness(net):
    state = TwinState(net, TH)
    assert state.volumes().tolist() == [0] * net.link_count

    read_link(state, (1, 2), 3, now=0.0)
    read_link(state, (2, 4), 2, now=1.0)  # no new reading of (1, 2)
    vols = state.volumes()
    assert vols[net.link_index[(1, 2)]] == 3  # the stale value survives
    assert vols[net.link_index[(2, 4)]] == 2
    assert vols.sum() == 5
    vols[:] = 7.0  # a copy: the twin is unchanged
    assert state.volumes().sum() == 5


def test_event_clearing_rules(net):
    state = TwinState(net, TH)
    read_node(state, 3, 2.0, now=0.0)
    detect_pedestrian_gathering(state)
    assert state.event_nodes == {3}

    # Not clearable while the cause is active, whatever the evidence says.
    read_node(state, 3, 0.0, now=1.0)
    clear_resolved_events(state, clearable_nodes=set(), clearable_links=set())
    assert state.event_nodes == {3}

    # Clearable but only stale exceeding evidence: stays flagged.
    read_node(state, 3, 2.0, now=2.0)
    clear_resolved_events(state, clearable_nodes={3}, clearable_links=set())
    assert state.event_nodes == {3}

    # Clearable and the latest delivery shows recovery: cleared.
    read_node(state, 3, 0.0, now=3.0)
    clear_resolved_events(state, clearable_nodes={3}, clearable_links=set())
    assert state.event_nodes == set()


def test_link_event_clearing(net):
    state = TwinState(net, TH)
    for t in (0.0, 10.0):
        read_link(state, (1, 2), 2, now=t, speed=0.1)
        detect_accident(state, now=t)
    assert state.event_link_pairs() == {(1, 2)}

    clear_resolved_events(state, set(), {net.link_index[(1, 2)]})
    assert state.event_link_pairs() == {(1, 2)}  # still slow, stays

    read_link(state, (1, 2), 2, now=11.0, speed=4.0)
    clear_resolved_events(state, set(), {net.link_index[(1, 2)]})
    assert state.event_link_pairs() == set()


def test_thresholds_validate():
    with pytest.raises(ContractError):
        EventThresholds(density_threshold=0.0)
    with pytest.raises(ContractError):
        EventThresholds(speed_threshold=-1.0)
    with pytest.raises(ContractError):
        EventThresholds(accident_window_s=0.0)


# ------------------------------------------- incremental detection = full scan


def full_scan_gathering(state):
    """Gathering detection over every observed node."""
    threshold = state.thresholds.density_threshold
    mask = state.node_density > threshold  # nan (never observed) compares False
    flagged = {int(n) for n in np.nonzero(mask)[0]}
    state.event_nodes |= flagged
    return flagged


def full_scan_accident(state, now):
    """Accident detection over every link's slow run."""
    run = state.low_speed_since
    mask = ~np.isnan(run) & (now - run >= state.thresholds.accident_window_s)
    flagged = set(np.flatnonzero(mask).tolist())
    state.event_links |= flagged
    return flagged


# (volume, speed, occupied): slow, free-flowing, empty
KINDS = {"slow": (2.0, 0.1, True), "fast": (2.0, 5.0, True), "empty": (0.0, 0.0, False)}
LINKS = range(5)
NODES = [1, 2, 3, 4]


@st.composite
def ingest_steps(draw):
    """Calls of ingest_arrays at an equal or later `now`, each reading a link
    or node any number of times with equal values, then clearable sets."""
    kind = draw(st.fixed_dictionaries({i: st.sampled_from(sorted(KINDS)) for i in LINKS}))
    density = draw(st.fixed_dictionaries(
        {n: st.sampled_from([0.0, 0.3, 0.5, 0.6, 2.0]) for n in NODES}))
    links = draw(st.lists(st.sampled_from(LINKS), max_size=6))
    nodes = draw(st.lists(st.sampled_from(NODES), max_size=4))
    return (draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 5.0, 10.0])),
            [(i, KINDS[kind[i]]) for i in links], [(n, density[n]) for n in nodes],
            draw(st.sets(st.sampled_from(NODES))), draw(st.sets(st.sampled_from(LINKS))))


def ingest_step(state, links, nodes, now):
    vol, speed, occ = (np.array(col) for col in zip(*(r for _, r in links))) \
        if links else (np.empty(0), np.empty(0), np.empty(0, dtype=bool))
    state.ingest_arrays(("cav", [1]), np.array([i for i, _ in links], dtype=int), vol,
                        speed, occ, np.array([n for n, _ in nodes], dtype=int),
                        np.array([d for _, d in nodes], dtype=float), now)


@settings(max_examples=200, deadline=None)
@given(st.lists(ingest_steps(), min_size=1, max_size=40))
def test_incremental_detection_equals_a_full_scan(steps):
    net = network_from_dict(diamond_doc())
    inc, ref = TwinState(net, TH), TwinState(net, TH)
    now = 0.0
    for dt, links, nodes, clear_nodes, clear_links in steps:
        now += dt
        for state in (inc, ref):
            ingest_step(state, links, nodes, now)
        assert detect_pedestrian_gathering(inc) <= full_scan_gathering(ref)
        assert detect_accident(inc, now) <= full_scan_accident(ref, now)
        assert (inc.event_nodes, inc.event_links) == (ref.event_nodes, ref.event_links)
        for state in (inc, ref):
            clear_resolved_events(state, clear_nodes, clear_links)
        assert (inc.event_nodes, inc.event_links) == (ref.event_nodes, ref.event_links)
        assert len(inc.run_heap) <= 2 * net.link_count


def test_run_heap_stays_bounded_when_the_clock_stands_still(net):
    """Slow and fast readings in turn at one time open a run, and leave its
    heap entry behind, on every second reading; a run opened before them on
    another link survives the rebuilds."""
    state = TwinState(net, TH)
    read_link(state, (2, 4), 2, now=100.0, speed=0.1)
    for k in range(10_000):
        read_link(state, (1, 2), 2, now=100.0, speed=0.1 if k % 2 == 0 else 5.0)
        detect_accident(state, 100.0)
        assert len(state.run_heap) <= 2 * net.link_count
    read_link(state, (1, 2), 2, now=100.0, speed=0.1)
    assert detect_accident(state, 109.0) == set()
    assert detect_accident(state, 110.0) == {net.link_index[(1, 2)], net.link_index[(2, 4)]}
