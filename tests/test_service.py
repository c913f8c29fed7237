import json
import math
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinnav import nav, service
from twinnav.scenario import MAX_VEHICLES
from twinnav.service import RouteService, ServiceError, ServiceState
from twinnav.twin import (
    TwinState,
    clear_resolved_events,
    detect_accident,
    detect_pedestrian_gathering,
)

from conftest import diamond_doc, make_scenario


@pytest.fixture
def server():
    srv = start_service()
    yield srv
    srv.shutdown()
    srv.server_close()


def start_service():
    """A route service on the diamond, serving from a thread of its own."""
    sc = make_scenario(diamond_doc(), traffic={"n_vel": 0, "p_user": 0.0})
    srv = RouteService(sc, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv


class Client:
    """A line-delimited JSON connection to a route service; a context
    manager, so a failing assertion inside its block still closes it."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.file = self.sock.makefile("rwb")

    def send_raw(self, line: bytes):
        self.file.write(line + b"\n")
        self.file.flush()

    def send(self, msg: dict):
        self.send_raw(json.dumps(msg).encode("utf-8"))

    def recv(self) -> dict:
        return json.loads(self.file.readline().decode("utf-8"))

    def request(self, msg: dict) -> dict:
        self.send(msg)
        return self.recv()

    def close(self):
        self.file.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def slow_link_update(time_s, pair=(1, 2), speed=0.1):
    return {
        "type": "sensor_update",
        "source": {"kind": "rsu", "id": 0},
        "time_s": time_s,
        "links": [
            {"from": pair[0], "to": pair[1], "volume": 2,
             "speed_mps": speed, "occupied": True}
        ],
    }


def test_route_request_avoids_reported_event_link(server):
    with Client(server.port) as c:
        # Ten seconds of slow, occupied readings flag the link as an accident.
        for t in (0.0, 5.0, 10.0):
            c.send(slow_link_update(t))
        reply = c.request(
            {"type": "route_request", "vehicle": "car-1", "position": 1,
             "destination": 4}
        )
        assert reply["type"] == "route_response"
        assert reply["status"] == "ok"
        hops = list(zip(reply["route"], reply["route"][1:]))
        assert (1, 2) not in hops
        assert reply["route"][0] == 1 and reply["route"][-1] == 4


def test_gathering_update_masks_node(server):
    with Client(server.port) as c:
        c.send(
            {
                "type": "sensor_update",
                "source": {"kind": "rsu", "id": 1},
                "time_s": 1.0,
                "nodes": [{"id": 2, "density": 1.5}],
            }
        )
        reply = c.request(
            {"type": "route_request", "vehicle": "car-2", "position": 1,
             "destination": 4}
        )
        assert reply["status"] == "ok"
        assert 2 not in reply["route"]


def test_identical_requests_identical_responses(server):
    with Client(server.port) as c:
        msg = {"type": "route_request", "vehicle": "x", "position": 1,
               "destination": 4}
        assert c.request(msg) == c.request(msg)


def test_degenerate_request(server):
    with Client(server.port) as c:
        reply = c.request(
            {"type": "route_request", "vehicle": "x", "position": 2,
             "destination": 2}
        )
        assert reply == {
            "type": "error",
            "code": "degenerate_request",
            "detail": reply["detail"],
        }


ROUTE = {"type": "route_request", "vehicle": "x", "position": 1, "destination": 4}


def test_garbage_line_keeps_connection(server):
    with Client(server.port) as c:
        c.send_raw(b"{not json")
        assert c.recv()["code"] == "parse"
        # Connection still serves requests afterwards.
        reply = c.request(
            {"type": "route_request", "vehicle": "x", "position": 1,
             "destination": 4}
        )
        assert reply["type"] == "route_response"


def test_a_handler_failure_answers_internal_and_keeps_connection(server, monkeypatch):
    plan_route, calls = ServiceState.plan_route, []

    def fail_once(state, msg):
        calls.append(msg)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return plan_route(state, msg)

    monkeypatch.setattr(ServiceState, "plan_route", fail_once)
    with Client(server.port) as c:
        assert c.request(ROUTE) == {"type": "error", "code": "internal", "detail": "boom"}
        assert c.request(ROUTE)["type"] == "route_response"
    assert len(calls) == 2


# Lines the JSON decoder rejects with an error other than a syntax error: the
# position is an integer literal past CPython's 4300-digit limit.
UNDECODABLE_LINES = {
    "deep nesting": b"[" * 100_000,
    "5000-digit position": b'{"type": "route_request", "vehicle": "x", "position": '
                           + b"9" * 5000 + b', "destination": 4}',
    "not UTF-8": b"\xff\xfe{}",
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_LINES))
def test_undecodable_line_answers_parse_and_keeps_connection(server, case):
    with Client(server.port) as c:
        c.send_raw(UNDECODABLE_LINES[case])
        assert c.recv()["code"] == "parse"
        assert c.request(ROUTE)["type"] == "route_response"


@pytest.mark.parametrize("line", [b"[1]", b"5", b'"route_request"', b"null"],
                         ids=["array", "number", "string", "null"])
def test_a_line_not_an_object_answers_parse_and_keeps_connection(server, line):
    with Client(server.port) as c:
        c.send_raw(line)
        reply = c.recv()
        assert reply == {"type": "error", "code": "parse",
                         "detail": "message must be a JSON object"}
        assert c.request(ROUTE)["type"] == "route_response"


def test_a_blank_line_gets_no_reply(server):
    with Client(server.port) as c:
        c.send_raw(b"")
        c.send_raw(b" \t ")
        # Had either blank line been answered, that reply would come first.
        assert c.request(ROUTE)["type"] == "route_response"
        c.send_raw(b"")
        assert c.request(dict(ROUTE, vehicle="y"))["vehicle"] == "y"


def test_over_long_line_answers_one_error_and_keeps_connection(server):
    with Client(server.port) as c:
        route = {"type": "route_request", "vehicle": "x", "position": 1, "destination": 4}
        # A well-formed request, but longer than the cap: it is not served.
        long = dict(route, vehicle="x" * (service.MAX_LINE_BYTES + 10))
        c.send(long)
        reply = c.recv()
        assert reply["type"] == "error" and reply["code"] == "line_too_long"
        assert c.request(route)["type"] == "route_response"
        # A line at the cap, its newline included, is still read whole.
        line = json.dumps(dict(route, vehicle="")).encode("utf-8")
        pad = service.MAX_LINE_BYTES - len(line) - 1
        at_cap = json.dumps(dict(route, vehicle="y" * pad)).encode("utf-8")
        assert len(at_cap) + 1 == service.MAX_LINE_BYTES
        c.send_raw(at_cap)
        assert c.recv()["vehicle"] == "y" * pad


def handler_threads():
    return {t for t in threading.enumerate() if "process_request_thread" in t.name}


def test_a_connection_past_the_limit_is_answered_busy_and_closed(monkeypatch):
    monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
    srv = start_service()
    try:
        before = handler_threads()
        with Client(srv.port) as first:
            assert first.request(ROUTE)["type"] == "route_response"
            handlers = handler_threads() - before
            assert len(handlers) == 1 and srv.open_connections == 1
            with Client(srv.port) as second:
                assert second.recv()["code"] == "busy"
                assert second.file.readline() == b""  # closed by the server
            assert handler_threads() - before == handlers  # no thread for the second
        for t in handlers:
            t.join(timeout=5)
            assert not t.is_alive()
        assert srv.open_connections == 0
        with Client(srv.port) as third:  # the freed place is served
            assert third.request(ROUTE)["type"] == "route_response"
    finally:
        srv.shutdown()
        srv.server_close()


def test_an_idle_connection_is_closed(monkeypatch):
    monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.2)
    srv = start_service()
    try:
        before = handler_threads()
        with Client(srv.port) as c:
            assert c.request(ROUTE)["type"] == "route_response"
            handlers = handler_threads() - before
            c.file.write(b'{"type": "route_req')  # no newline ever follows
            c.file.flush()
            assert c.file.readline() == b""  # closed by the server
        for t in handlers:
            t.join(timeout=5)
            assert not t.is_alive()
        assert srv.open_connections == 0
    finally:
        srv.shutdown()
        srv.server_close()


def test_unknown_type(server):
    with Client(server.port) as c:
        assert c.request({"type": "teleport"})["code"] == "unknown_type"


def test_bad_requests(server):
    with Client(server.port) as c:
        assert c.request({"type": "route_request", "vehicle": "x"})["code"] == "bad_request"
        assert (
            c.request(
                {"type": "route_request", "vehicle": "x", "position": 1,
                 "destination": 99}
            )["code"]
            == "bad_request"
        )
        assert (
            c.request(
                {"type": "route_request", "vehicle": "x", "position": math.inf,
                 "destination": 4}
            )["code"]
            == "bad_request"
        )
        assert (
            c.request(
                {"type": "sensor_update", "source": {"kind": "rsu", "id": 0},
                 "links": [{"from": 9, "to": 1, "volume": 1, "speed_mps": 1,
                            "occupied": True}]}
            )["code"]
            == "bad_request"
        )
        # Node ids are JSON integers: no truncation of floats, no bools.
        for position, destination in ((1.7, 4), (True, 4), (1, 4.0), (1, "4")):
            reply = c.request({"type": "route_request", "vehicle": "x",
                               "position": position, "destination": destination})
            assert reply["code"] == "bad_request", (position, destination)


def test_unreachable_destination(server):
    with Client(server.port) as c:
        reply = c.request(
            {"type": "route_request", "vehicle": "x", "position": 4,
             "destination": 1}
        )
        assert reply["status"] == "unreachable" and reply["route"] == []


def test_response_latency_p50(server):
    with Client(server.port) as c:
        msg = {"type": "route_request", "vehicle": "x", "position": 1,
               "destination": 4}
        times = []
        for _ in range(30):
            t0 = time.perf_counter()
            c.request(msg)
            times.append(time.perf_counter() - t0)
        times.sort()
        assert times[len(times) // 2] < 0.050


# ------------------------------------------------- flag clearing, bad readings


def free_link_update(time_s, pair=(2, 4)):
    return slow_link_update(time_s, pair, speed=9.0)


def node_update(time_s, node, density):
    return {
        "type": "sensor_update",
        "source": {"kind": "rsu", "id": 1},
        "time_s": time_s,
        "nodes": [{"id": node, "density": density}],
    }


def diamond_state():
    return ServiceState(make_scenario(diamond_doc(), traffic={"n_vel": 0, "p_user": 0.0}))


def test_flagged_link_clears_on_free_flow_readings():
    state = diamond_state()
    for t in (0.0, 5.0, 10.0):
        state.apply_sensor_update(slow_link_update(t, (2, 4)))
    assert state.twin.event_link_pairs() == {(2, 4)}
    for t in range(11, 201):
        state.apply_sensor_update(free_link_update(float(t)))
    assert state.twin.event_link_pairs() == set()


def test_flagged_node_clears_at_or_below_threshold():
    state = diamond_state()
    state.apply_sensor_update(node_update(1.0, 3, 1.5))
    assert state.twin.event_nodes == {3}
    state.apply_sensor_update(node_update(2.0, 3, state.twin.thresholds.density_threshold))
    assert state.twin.event_nodes == set()


def test_late_reading_opens_its_run_at_the_service_clock():
    state = diamond_state()
    state.apply_sensor_update(free_link_update(100.0))
    # Older than the clock: ingested at t = 100, not at t = 1.
    state.apply_sensor_update(slow_link_update(1.0, (2, 4)))
    assert state.twin.event_link_pairs() == set()
    assert state.clock_s == 100.0
    state.apply_sensor_update(slow_link_update(109.0, (2, 4)))
    assert state.twin.event_link_pairs() == set()
    state.apply_sensor_update(slow_link_update(110.0, (2, 4)))
    assert state.twin.event_link_pairs() == {(2, 4)}


def twin_view(state):
    twin = state.twin
    return (
        json.dumps(twin.snapshot_dict(), sort_keys=True),
        state.clock_s,
        twin.low_speed_since.tobytes(),
        dict(twin.last_update),
    )


def reading(**overrides):
    item = {"from": 1, "to": 2, "volume": 2, "speed_mps": 0.1, "occupied": True}
    item.update(overrides)
    return item


BAD_UPDATES = {
    "occupied as a string": {"links": [reading(occupied="false")]},
    "occupied as a number": {"links": [reading(occupied=1)]},
    "infinite time": {"time_s": math.inf, "links": [reading()]},
    "NaN time": {"time_s": math.nan, "links": [reading()]},
    "time as a string": {"time_s": "12", "links": [reading()]},
    "time past float range": {"time_s": 10**400, "links": [reading()]},
    "time past the clock's resolution": {"time_s": 1e17, "links": [reading()]},
    "volume past float range": {"links": [reading(volume=10**400)]},
    "density past float range": {"nodes": [{"id": 3, "density": 10**400}]},
    "NaN volume": {"links": [reading(volume=math.nan)]},
    "infinite volume": {"links": [reading(volume=math.inf)]},
    "negative volume": {"links": [reading(volume=-1)]},
    "NaN speed": {"links": [reading(speed_mps=math.nan)]},
    "negative speed": {"links": [reading(speed_mps=-0.5)]},
    "infinite speed": {"links": [reading(speed_mps=math.inf)]},
    "NaN density": {"nodes": [{"id": 3, "density": math.nan}]},
    "negative density": {"nodes": [{"id": 3, "density": -0.1}]},
    "infinite density": {"nodes": [{"id": 3, "density": math.inf}]},
    "infinite link endpoint": {"links": [reading(to=math.inf)]},
    "infinite source id": {"source": {"kind": "rsu", "id": math.inf}},
    "bool source id": {"source": {"kind": "rsu", "id": True}, "links": [reading()]},
    "float source id": {"source": {"kind": "rsu", "id": 1.5}, "links": [reading()]},
    "string source id": {"source": {"kind": "rsu", "id": "1"}, "links": [reading()]},
    "bool link endpoint": {"links": [reading(**{"from": True})]},
    "float link endpoint": {"links": [reading(to=2.9)]},
    "integral float link endpoint": {"links": [reading(to=2.0)]},
    "string link endpoint": {"links": [reading(to="2")]},
    "bool node id": {"nodes": [{"id": True, "density": 0.1}]},
    "float node id": {"nodes": [{"id": 3.5, "density": 0.1}]},
    "string node id": {"nodes": [{"id": "3", "density": 0.1}]},
    "links not an array": {"links": 5},
    "nodes not an array": {"nodes": 5},
    "source without id": {"source": {"kind": "rsu"}, "links": [reading(volume=3)]},
    "unknown source kind": {"source": {"kind": "bus", "id": 0}, "links": [reading()]},
    "source not an object": {"source": ["rsu", 0], "links": [reading()]},
    "volume as a string": {"links": [reading(volume="3")]},
    "boolean volume": {"links": [reading(volume=True)]},
    "speed as a string": {"links": [reading(speed_mps="0.1")]},
    "density as a string": {"nodes": [{"id": 3, "density": "1.5"}]},
    "boolean time": {"time_s": True, "links": [reading()]},
    "negative volume superseded": {"links": [reading(volume=-1), reading(volume=3)]},
    "negative speed superseded": {"links": [reading(speed_mps=-0.5), reading()]},
    "negative density superseded": {"nodes": [{"id": 3, "density": -0.1},
                                              {"id": 3, "density": 0.2}]},
    "NaN density superseded": {"nodes": [{"id": 3, "density": math.nan},
                                         {"id": 3, "density": 0.2}]},
    "volume past float range superseded": {"links": [reading(volume=10**400),
                                                     reading(volume=3)]},
    "volume past the vehicle cap": {"links": [reading(volume=MAX_VEHICLES + 1)]},
    "volume past the vehicle cap superseded": {
        "links": [reading(volume=MAX_VEHICLES + 1), reading(volume=3)]},
    "speed past float range": {"links": [reading(speed_mps=10**400)]},
    "unknown link": {"links": [reading(**{"from": 4, "to": 1})]},
    "unknown node": {"nodes": [{"id": 5, "density": 0.2}]},
    "node id past float range": {"nodes": [{"id": 10**400, "density": 0.2}]},
}


def test_volume_past_the_vehicle_cap_is_rejected_before_it_reaches_the_planner():
    # 1.7e308 vehicles is a finite float, but no link holds more than
    # MAX_VEHICLES, and the speed law overflows on it.
    state = diamond_state()
    state.apply_sensor_update(slow_link_update(5.0))
    before = twin_view(state)
    with pytest.raises(ServiceError) as err:
        state.apply_sensor_update({"type": "sensor_update",
                                   "source": {"kind": "rsu", "id": 0}, "time_s": 7.0,
                                   "links": [reading(volume=1.7e308)]})
    assert err.value.code == "bad_request"
    assert twin_view(state) == before
    assert state.plan_route(ROUTE)["status"] == "ok"
    state.apply_sensor_update({"type": "sensor_update",
                               "source": {"kind": "rsu", "id": 0}, "time_s": 8.0,
                               "links": [reading(volume=MAX_VEHICLES)]})
    assert state.twin.link_volume[state.net.link_index[(1, 2)]] == MAX_VEHICLES
    assert state.plan_route(ROUTE)["status"] == "ok"


def test_a_time_past_the_clock_resolution_cannot_stall_detection():
    """Past 2**52 steps one step no longer advances a float clock: accepted,
    an update at 1e17 s would hold the clock there, and untimed slow readings
    would never flag their link."""
    state = diamond_state()
    with pytest.raises(ServiceError) as err:
        state.apply_sensor_update(slow_link_update(1e17))
    assert err.value.code == "bad_request"
    untimed = slow_link_update(None)
    del untimed["time_s"]
    for _ in range(30):
        state.apply_sensor_update(untimed)
    assert state.clock_s == 30.0
    assert state.twin.event_link_pairs() == {(1, 2)}
    # At the bound itself, one step still advances the clock.
    edge = diamond_state()
    edge.apply_sensor_update(slow_link_update(2.0**52 * edge.dt_s))
    edge.apply_sensor_update(untimed)
    assert edge.clock_s == 2.0**52 * edge.dt_s + edge.dt_s


def spy_ingest(state):
    """The columns of each ingest_arrays call the state's twin gets from here
    on, as lists."""
    calls = []
    ingest = state.twin.ingest_arrays

    def spy(sources, *columns):
        calls.append([c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
        return ingest(sources, *columns)

    state.twin.ingest_arrays = spy
    return calls


def test_repeated_readings_keep_the_last_at_first_arrival():
    """One ingest_arrays call and one detection pass per accepted update and
    neither for a rejected one; a repeated link or node keeps its last
    reading at the place it first arrived."""
    state = diamond_state()
    calls = spy_ingest(state)
    passes = []  # the time of each detection pass
    detect = state.twin.detect

    def spy_detect(now, *clearable):
        passes.append(now)
        return detect(now, *clearable)

    state.twin.detect = spy_detect
    with pytest.raises(ServiceError):
        state.apply_sensor_update({**node_update(1.0, 3, 0.2),
                                   "links": [reading(volume=-1), reading(volume=3)]})
    assert calls == [] and passes == []
    state.apply_sensor_update({
        "source": {"kind": "rsu", "id": 0}, "time_s": 1.0,
        "links": [reading(volume=1), reading(**{"from": 2, "to": 4}, volume=2),
                  reading(volume=3)],
        "nodes": [{"id": 3, "density": 0.2}, {"id": 3, "density": 0.1}]})
    link_index = state.net.link_index
    assert calls == [[[link_index[(1, 2)], link_index[(2, 4)]], [3.0, 2.0], [0.1, 0.1],
                      [True, True], [3], [0.1], 1.0]]
    assert passes == [1.0]


@pytest.mark.parametrize("case", sorted(BAD_UPDATES))
def test_bad_reading_rejected_and_twin_unchanged(server, case):
    with Client(server.port) as c:
        route = {"type": "route_request", "vehicle": "x", "position": 1, "destination": 4}
        c.send(slow_link_update(5.0))
        assert c.request(route)["type"] == "route_response"  # the update is applied
        before = twin_view(server.state)
        msg = {"type": "sensor_update", "source": {"kind": "rsu", "id": 0}, "time_s": 7.0}
        msg.update(BAD_UPDATES[case])
        c.send(msg)  # json.dumps writes NaN and Infinity as Python's json reads them
        c.send(route)
        assert c.recv()["code"] == "bad_request"
        assert c.recv()["type"] == "route_response"
        assert twin_view(server.state) == before


# ------------------------------------------------------- fuzzed message stream

DIAMOND_PAIRS = [(1, 2), (2, 4), (1, 3), (3, 4), (2, 3)]

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

LINK_READINGS = st.fixed_dictionaries({
    "pair": st.sampled_from(DIAMOND_PAIRS),
    "volume": st.floats(0.0, 20.0),
    "speed_mps": st.sampled_from([0.0, 0.1, 0.49, 0.5, 3.0, 9.0]) | st.floats(0.0, 12.0),
    "occupied": st.booleans(),
}).map(lambda r: {"from": r["pair"][0], "to": r["pair"][1], "volume": r["volume"],
                  "speed_mps": r["speed_mps"], "occupied": r["occupied"]})

VALID_UPDATES = st.fixed_dictionaries({
    "type": st.just("sensor_update"),
    "source": st.fixed_dictionaries({"kind": st.sampled_from(["rsu", "cav"]),
                                     "id": st.integers(0, 3)}),
    "time_s": st.none() | st.sampled_from([0, 5.0, 10, 10.5, 30.0, 100])
    | st.floats(-20.0, 200.0),
    "links": st.lists(LINK_READINGS, min_size=1, max_size=4),
    "nodes": st.lists(st.fixed_dictionaries({"id": st.sampled_from([1, 2, 3, 4]),
                                             "density": st.floats(0.0, 1.5)}),
                      max_size=2),
})

MESSAGE_FIELDS = ["source", "time_s", "links", "nodes"]


@st.composite
def service_messages(draw):
    """A valid sensor update, one with a known defect, one with a field
    replaced by arbitrary JSON, or a route request (position and destination
    sometimes arbitrary)."""
    kind = draw(st.sampled_from(["valid"] * 4 + ["malformed", "junk", "route"]))
    if kind == "route":
        node = st.sampled_from([1, 2, 3, 4])
        return kind, {"type": "route_request", "vehicle": "car",
                      "position": draw(node | JSON_JUNK),
                      "destination": draw(node | JSON_JUNK)}
    msg = draw(VALID_UPDATES)
    if kind == "malformed":
        msg.update(draw(st.sampled_from(sorted(BAD_UPDATES.values(), key=repr)
                                        + [{"links": [reading(to=9)]},
                                           {"nodes": [{"id": 99, "density": 0.1}]},
                                           {"source": {"kind": "bus", "id": 1}},
                                           {"source": None}])))
    elif kind == "junk":
        field = draw(st.sampled_from(MESSAGE_FIELDS))
        msg[field] = draw(JSON_JUNK)
    return kind, msg


class SlowRunModel:
    """Per link: whether the latest accepted reading is slow and occupied, and
    the service clock at which the current slow run's first reading arrived.
    Per node: the latest accepted density."""

    def __init__(self, state):
        self.clock = state.clock_s
        self.dt = state.dt_s
        self.speed_threshold = state.twin.thresholds.speed_threshold
        self.run_start = {}  # pair -> clock, present while the latest reading is slow
        self.density = {}

    def accept(self, msg):
        time_s = msg.get("time_s")
        self.clock = self.clock + self.dt if time_s is None else max(self.clock, float(time_s))
        readings = {}
        for item in msg.get("links", []):
            readings[(int(item["from"]), int(item["to"]))] = item
        for pair, item in readings.items():
            slow = item["occupied"] is True and float(item["speed_mps"]) < self.speed_threshold
            if not slow:
                self.run_start.pop(pair, None)
            else:
                self.run_start.setdefault(pair, self.clock)
        for item in msg.get("nodes", []):
            self.density[int(item["id"])] = float(item["density"])


@settings(max_examples=150, deadline=None)
@given(st.lists(service_messages(), min_size=1, max_size=30))
def test_fuzzed_messages_never_flag_without_slow_evidence(messages):
    state = diamond_state()
    model = SlowRunModel(state)
    window = state.twin.thresholds.accident_window_s
    for kind, msg in messages:
        before = twin_view(state)
        try:
            if kind == "route":
                reply = state.plan_route(msg)
            else:
                state.apply_sensor_update(msg)
        except ServiceError as exc:
            assert kind != "valid", exc.detail
            assert twin_view(state) == before
            continue
        assert kind != "malformed"
        if kind == "route":
            assert twin_view(state) == before
            if reply["status"] == "ok":
                hops = set(zip(reply["route"], reply["route"][1:]))
                assert hops <= set(DIAMOND_PAIRS)
                assert not hops & state.twin.event_link_pairs()
                assert not set(reply["route"][1:]) & state.twin.event_nodes
            continue
        model.accept(msg)
        assert state.clock_s == model.clock
        for pair in state.twin.event_link_pairs():
            assert pair in model.run_start, f"{pair} flagged without a slow latest reading"
            assert model.clock - model.run_start[pair] >= window, (
                f"{pair} flagged {model.clock - model.run_start[pair]} s into its slow run")
        for node in state.twin.event_nodes:
            assert model.density[node] > state.twin.thresholds.density_threshold


# ------------------------------------------ one ingest law behind both entries

UNKNOWN_PAIRS = [(4, 1), (9, 1), (2, 1)]
SAMPLED_VALUES = [0.0, 0.1, 0.49, 0.5, 3.0, 9.0] * 3 + [math.nan, -1.0, math.inf]
READING_VALUES = st.floats(0.0, 12.0) | st.sampled_from(SAMPLED_VALUES)
VOLUME_VALUES = st.floats(0.0, 12.0) | st.sampled_from(SAMPLED_VALUES + [1.7e308])


@st.composite
def reading_streams(draw):
    """Sensor updates with increasing time_s: repeated links with different
    values, unknown links and nodes, NaN, negative and infinite values, and
    volumes past the vehicle cap."""
    reading = st.fixed_dictionaries({
        "pair": st.sampled_from(DIAMOND_PAIRS * 3 + UNKNOWN_PAIRS),
        "volume": VOLUME_VALUES,
        "speed_mps": READING_VALUES,
        "occupied": st.booleans(),
    }).map(lambda r: {"from": r["pair"][0], "to": r["pair"][1], "volume": r["volume"],
                      "speed_mps": r["speed_mps"], "occupied": r["occupied"]})
    node = st.fixed_dictionaries({"id": st.sampled_from([1, 2, 3, 4] * 3 + [0, 99]),
                                  "density": READING_VALUES})
    time_s, stream = 0.0, []
    for _ in range(draw(st.integers(1, 25))):
        time_s += draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0]))
        stream.append({
            "type": "sensor_update",
            "source": {"kind": draw(st.sampled_from(["rsu", "cav"])),
                       "id": draw(st.integers(0, 3))},
            "time_s": time_s,
            "links": draw(st.lists(reading, max_size=4)),
            "nodes": draw(st.lists(node, max_size=2)),
        })
    return stream


def reference_update(twin, clock, msg):
    """The law a sensor update follows, on columns of every reading in arrival
    order: any unknown pair or node id, any volume, speed or density not
    finite and >= 0, or any volume past MAX_VEHICLES, superseded or not,
    rejects the update (None, the twin untouched). Else a repeated link or
    node keeps its last reading at its first arrival's place, in one
    ingest_arrays call, followed by detection and clearing of what the update
    read. Returns the new clock."""
    links, nodes = msg["links"], msg["nodes"]
    link_idx = [twin.net.link_index.get((r["from"], r["to"]), -1) for r in links]
    node_ids = [n["id"] for n in nodes]
    values = np.array([r["volume"] for r in links] + [r["speed_mps"] for r in links]
                      + [n["density"] for n in nodes], dtype=float)
    k = len(links)
    if (-1 in link_idx or not all(1 <= n <= twin.net.node_count for n in node_ids)
            or not np.all((values >= 0) & (values < math.inf))
            or not np.all(values[:k] <= MAX_VEHICLES)):
        return None
    keep_links = list(dict(zip(link_idx, range(k))).values())
    keep_nodes = list(dict(zip(node_ids, range(len(nodes)))).values())
    now = max(clock, msg["time_s"])
    twin.ingest_arrays((msg["source"]["kind"], [msg["source"]["id"]]),
                       np.array(link_idx, dtype=np.intp)[keep_links],
                       values[:k][keep_links], values[k:2 * k][keep_links],
                       np.array([r["occupied"] for r in links], dtype=bool)[keep_links],
                       np.array(node_ids, dtype=np.intp)[keep_nodes],
                       values[2 * k:][keep_nodes], now)
    detect_pedestrian_gathering(twin)
    detect_accident(twin, now)
    clear_resolved_events(twin, set(node_ids), set(link_idx))
    return now


def twin_law_view(twin):
    return (twin.link_volume.tobytes(), twin.low_speed_since.tobytes(),
            twin.node_density.tobytes(),
            set(twin.event_nodes), set(twin.event_links), dict(twin.last_update))


@settings(max_examples=100, deadline=None)
@given(reading_streams())
def test_service_update_follows_the_reference_law(stream):
    state = diamond_state()
    twin = TwinState(state.net, state.twin.thresholds)
    clock = 0.0
    for msg in stream:
        before = twin_law_view(state.twin)
        try:
            state.apply_sensor_update(msg)
            service_ok = True
        except ServiceError as exc:
            assert exc.code == "bad_request"
            service_ok = False
        now = reference_update(twin, clock, msg)
        assert service_ok == (now is not None), msg
        if service_ok:
            clock = now
        else:
            assert twin_law_view(state.twin) == before
        assert twin_law_view(state.twin) == twin_law_view(twin)
        assert state.clock_s == clock


# ------------------------------------------- the planner kept across requests

DIAMOND_OD = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]


def fresh_route(state, position, destination):
    """The route a fresh plan gives: rows built from the twin's current
    volumes and flags, then one search."""
    twin = state.twin
    rows = state.net.link_rows(nav.masked_journey_times(
        state.net, twin.link_volume, twin.event_nodes, twin.event_links))
    found = nav.dijkstra_fastest(rows, position, destination)
    return [] if found is None else list(found.nodes)


def assert_plans_like_fresh_rows(state):
    for a, b in DIAMOND_OD:
        reply = state.plan_route({"vehicle": "x", "position": a, "destination": b})
        assert reply["route"] == fresh_route(state, a, b), (a, b)
        assert reply["status"] == ("ok" if reply["route"] else "unreachable")


def test_plan_route_after_flags_raise_and_clear():
    state = diamond_state()
    assert_plans_like_fresh_rows(state)
    for t in (0.0, 5.0, 10.0):
        state.apply_sensor_update(slow_link_update(t, (2, 4)))
    state.apply_sensor_update(node_update(11.0, 3, 1.5))
    assert state.twin.event_link_pairs() == {(2, 4)} and state.twin.event_nodes == {3}
    assert state.plan_route({"vehicle": "x", "position": 1, "destination": 4})["route"] == []
    assert (1, 4) in state.planner.no_path
    assert_plans_like_fresh_rows(state)
    state.apply_sensor_update(node_update(12.0, 3, 0.1))
    assert_plans_like_fresh_rows(state)
    assert (1, 4) not in state.planner.no_path
    state.apply_sensor_update(free_link_update(13.0))
    assert not state.twin.event_link_pairs() and not state.twin.event_nodes
    assert_plans_like_fresh_rows(state)


@settings(max_examples=60, deadline=None)
@given(reading_streams(), st.lists(st.booleans(), min_size=25, max_size=25))
def test_plan_route_answers_like_fresh_rows(stream, ask):
    """Updates that raise and clear flags, with requests after some of them:
    every answer equals a plan on rows built fresh for it."""
    state = diamond_state()
    for msg, asked in zip(stream, ask):
        try:
            state.apply_sensor_update(msg)
        except ServiceError:
            pass
        if asked:
            assert_plans_like_fresh_rows(state)
    assert_plans_like_fresh_rows(state)
