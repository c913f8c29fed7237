import numpy as np
import pytest

from twinnav.errors import ContractError
from twinnav.twin import (
    EventThresholds,
    TwinState,
    clear_resolved_events,
    detect_accident,
    detect_pedestrian_gathering,
    ingest_readings,
)

from conftest import diamond_doc
from twinnav.network import network_from_dict

TH = EventThresholds(density_threshold=0.5, speed_threshold=0.5, accident_window_s=10.0)


@pytest.fixture
def net():
    return network_from_dict(diamond_doc())


RSU = ("rsu", [0])


def read_link(state, pair, volume, now, speed=5.0, occupied=None, source=RSU):
    occ = occupied if occupied is not None else volume > 0
    ingest_readings(state, source, [(pair, (volume, speed, occ))], [], now)


def read_node(state, node, density, now):
    ingest_readings(state, RSU, [], [(node, density)], now)


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


def test_ingest_readings_checks_superseded_readings_and_keeps_the_last(net):
    state = TwinState(net, TH)
    for links, nodes in (([((1, 2), (-1.0, 5.0, True)), ((1, 2), (3.0, 5.0, True))], []),
                         ([], [(3, float("nan")), (3, 0.2)])):
        with pytest.raises(ContractError):
            ingest_readings(state, RSU, links, nodes, 1.0)
    assert not state.link_volume.any() and not state.node_observed.any()
    assert not state.last_update
    written = ingest_readings(
        state, RSU, [((1, 2), (1.0, 5.0, True)), ((2, 4), (2.0, 5.0, True)),
                     ((1, 2), (3.0, 5.0, True))], [(3, 0.2), (3, 0.1)], 1.0)
    assert written == [net.link_index[(1, 2)], net.link_index[(2, 4)]]
    assert state.link_volume[net.link_index[(1, 2)]] == 3
    assert state.node_density[3] == 0.1


def test_batched_ingest_equals_one_call_per_source(net):
    """Vehicles 3, 5 and 8 on links 0, 2 and 0 (slow and occupied), then
    vehicle 5 alone reports link 2 free: batched and one-by-one agree."""
    ids, links = [3, 5, 8], [0, 2, 0]
    vols, speeds, occ = [2.0, 1.0, 2.0], [0.1, 0.2, 0.1], [True, True, True]
    none_i, none_f = np.empty(0, dtype=int), np.empty(0)
    one, batch = TwinState(net, TH), TwinState(net, TH)
    for k in range(3):
        one.ingest_arrays(("cav", [ids[k]]), np.array([links[k]]), np.array([vols[k]]),
                          np.array([speeds[k]]), np.array([occ[k]]), none_i, none_f, 4.0)
    batch.ingest_arrays(("cav", ids), np.array(links), np.array(vols),
                        np.array(speeds), np.array(occ), none_i, none_f, 4.0)
    for state in (one, batch):
        state.ingest_arrays(("cav", [5]), np.array([2]), np.array([0.0]),
                            np.array([9.0]), np.array([False]), none_i, none_f, 5.0)
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
