"""Line-delimited JSON route-planning service.

One UTF-8 JSON message per line over a plain TCP stream. Incoming types:

  {"type": "sensor_update", "source": {"kind": "rsu"|"cav", "id": 3},
   "time_s": 12.0,
   "links": [{"from": 1, "to": 2, "volume": 4, "speed_mps": 0.2,
              "occupied": true}],
   "nodes": [{"id": 7, "density": 1.2}]}

  {"type": "route_request", "vehicle": "car-1", "position": 1,
   "destination": 9}

A sensor_update gets no reply on success (errors are reported); a
route_request gets exactly one route_response or error. Unknown types answer
{"type": "error", "code": "unknown_type"}; lines that `errors.decode_json`
rejects answer {"type": "error", "code": "parse"} and keep the connection open. A line longer
than MAX_LINE_BYTES, its newline included, is discarded unread up to its
newline and answers {"type": "error", "code": "line_too_long"}; the connection
stays open.

Ids are JSON integers: a source's required `id`, a link's `from` and `to`, a
node `id` and a route request's `position` and `destination` (a boolean, a
float such as 2.0 or 2.9, or a string is not an id). A reading must name a
link or node of the network, its volume, speed_mps and density must be finite,
non-negative JSON numbers (a boolean or a numeric string is not a number;
every reading of a repeated link or node is checked, and the last counts),
`occupied` a JSON boolean, `time_s`, when given, a finite JSON number, and
`links` and `nodes`, when given, JSON arrays; anything else answers
`bad_request` and leaves the twin unchanged.

Sensor updates feed a live twin; a source covers exactly what it reports.
An update is read in one pass over its readings that checks each value inline
(its JSON type and range, and that its pair or node id names a network
element), resolves each (from, to) pair to a link index and keeps a repeated
link's or node's last reading; the columns then enter the twin with one
`TwinState.ingest_arrays` call, the engine's entry. The service clock
follows the largest `time_s` seen; an update without `time_s` is taken one
step after the clock, and one whose `time_s` is older than the clock is taken
at the clock. Each update then runs event detection against the twin's own
thresholds, which judges only the nodes written since the last detection and
the slow runs that came due on the twin's run heap, so an update costs what
it carries, not what the network holds. It clears every flag whose latest reading no
longer meets its criterion (the service has no scheduled causes).

Route requests plan over event-masked journey-time rows of the twin's
current volumes and flags; the rows' keys are the graph.
The state keeps one `nav.PlannerState` under its lock, so a request patches
only the links whose journey time changed since the last request, and a pair
found to have no path answers unreachable without a search until the set of
+inf links changes. A request whose position is its destination answers
`degenerate_request`.

At most MAX_CONNECTIONS connections are served at once; one more is answered
{"type": "error", "code": "busy"} and closed. A connection whose client sends
no line (or takes no reply) for IDLE_TIMEOUT_S seconds is closed, and its
handler thread ends.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading

import numpy as np

from . import nav
from .errors import decode_json, json_int, json_number
from .scenario import Scenario
from .twin import (
    TwinState,
    clear_resolved_events,
    detect_accident,
    detect_pedestrian_gathering,
)

log = logging.getLogger(__name__)

# Longest line read, newline included. A sensor update of a large RSU (about
# 100 links) is ~10 KB.
MAX_LINE_BYTES = 1 << 20

# Connections served at once. One past the limit is answered with one
# {"type": "error", "code": "busy"} line and closed.
MAX_CONNECTIONS = 64

# Seconds a connection may wait for its client's next line (or for the client
# to take a reply) before it is closed.
IDLE_TIMEOUT_S = 300.0

# The reading columns of an update without link readings.
_NO_READINGS = np.empty(0)


class ServiceError(Exception):
    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


class ServiceState:
    """Twin plus planning machinery behind a lock; handlers may run on many
    threads but every mutation and every planning snapshot is serialized."""

    def __init__(self, scenario: Scenario):
        self.net = scenario.network
        self.twin = TwinState(self.net, scenario.thresholds)
        self.clock_s = 0.0
        self.dt_s = scenario.sim.dt_s
        self.planner = nav.PlannerState(self.net)
        self.lock = threading.Lock()

    def apply_sensor_update(self, msg: dict) -> None:
        source_doc = msg.get("source")
        if not isinstance(source_doc, dict) or "kind" not in source_doc:
            raise ServiceError("bad_request", "sensor_update needs source {kind, id}")
        kind = source_doc["kind"]
        if kind not in ("rsu", "cav"):
            raise ServiceError("bad_request", f"unknown source kind {kind!r}")
        try:
            source_id = json_int(source_doc["id"])
        except (KeyError, TypeError):
            raise ServiceError("bad_request", "source id must be an integer")
        time_s = msg.get("time_s")
        if time_s is not None:
            try:
                time_s = json_number(time_s)
            except (TypeError, ValueError) as exc:
                raise ServiceError("bad_request", f"time_s must be a finite number ({exc})")

        link_items = msg.get("links", [])
        node_items = msg.get("nodes", [])
        if not isinstance(link_items, list) or not isinstance(node_items, list):
            raise ServiceError("bad_request", "links and nodes must be JSON arrays")
        # One pass checks every reading, a superseded one included. A repeated
        # link or node keeps its last reading at its first arrival's place.
        link_index = self.net.link_index
        links: dict[int, tuple[float, float, bool]] = {}
        for item in link_items:
            try:
                pair = (item["from"], item["to"])
                volume = json_number(item["volume"])
                speed = json_number(item["speed_mps"])
                occ = item["occupied"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError("bad_request", "link readings need from, to, occupied "
                                   f"and finite JSON numbers volume, speed_mps ({exc!r})")
            if type(pair[0]) is not int or type(pair[1]) is not int:
                raise ServiceError("bad_request", f"link from and to must be integers, "
                                   f"got {pair}")
            if volume < 0 or speed < 0:
                raise ServiceError("bad_request", "volume and speed_mps must be >= 0, "
                                   f"got {volume} and {speed}")
            if occ is not True and occ is not False:
                raise ServiceError("bad_request",
                                   f"occupied must be true or false, got {occ!r}")
            idx = link_index.get(pair)
            if idx is None:
                raise ServiceError("bad_request",
                                   f"observation references unknown link {pair}")
            links[idx] = (volume, speed, occ)
        node_count = self.net.node_count
        nodes: dict[int, float] = {}
        for item in node_items:
            try:
                node = item["id"]
                density = json_number(item["density"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError("bad_request", "node readings need an integer id and "
                                   f"a finite JSON number density ({exc!r})")
            if type(node) is not int or not 1 <= node <= node_count:
                raise ServiceError("bad_request", "node id must be an integer in "
                                   f"1..{node_count}, got {node!r}")
            if density < 0:
                raise ServiceError("bad_request", f"density must be >= 0, got {density}")
            nodes[node] = density
        if links:
            volumes, speeds, occupied = map(np.array, zip(*links.values()))
        else:
            volumes = speeds = occupied = _NO_READINGS
        link_idx = np.fromiter(links, np.intp, len(links))
        node_idx = np.fromiter(nodes, np.intp, len(nodes))
        densities = np.fromiter(nodes.values(), float, len(nodes))

        with self.lock:
            # A reading older than the clock is taken at the clock, so no slow
            # run starts before the clock at which its first reading arrived.
            if time_s is None:
                now = self.clock_s + self.dt_s
            else:
                now = max(self.clock_s, time_s)
            self.twin.ingest_arrays((kind, [source_id]), link_idx, volumes, speeds,
                                    occupied, node_idx, densities, now)
            self.clock_s = now
            detect_pedestrian_gathering(self.twin)
            detect_accident(self.twin, self.clock_s)
            # No scheduled causes here, so any flag may clear on recovery
            # evidence. Only what this update read can have recovered: every
            # other flag already failed the test after its last reading.
            clear_resolved_events(self.twin, nodes, links)

    def plan_route(self, msg: dict) -> dict:
        try:
            vehicle = msg["vehicle"]
            position = json_int(msg["position"])
            destination = json_int(msg["destination"])
        except (KeyError, TypeError) as exc:
            raise ServiceError(
                "bad_request", f"route_request needs vehicle, position, destination ({exc})"
            )
        if position not in self.net.node_by_id or destination not in self.net.node_by_id:
            raise ServiceError("bad_request", "position or destination is not a node")
        if position == destination:
            raise ServiceError(
                "degenerate_request", f"start and destination are both {position}")
        with self.lock:
            planner = self.planner
            planner.update(nav.masked_journey_times(
                self.net, self.twin.link_volume, self.twin.event_nodes,
                self.twin.event_links,
            ))
            found = nav.fastest_unless_cut_off(
                planner.rows(), position, destination, planner.no_path)
        if found is None:
            return {
                "type": "route_response",
                "vehicle": vehicle,
                "route": [],
                "status": "unreachable",
            }
        return {
            "type": "route_response",
            "vehicle": vehicle,
            "route": list(found.nodes),
            "status": "ok",
        }


class _Handler(socketserver.StreamRequestHandler):
    def setup(self):
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle(self):
        try:
            self._serve_lines()
        except TimeoutError:
            log.info("closing a connection idle for %s s", self.timeout)

    def _serve_lines(self):
        state: ServiceState = self.server.state
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                break
            too_long = len(raw) > MAX_LINE_BYTES
            while too_long and raw and not raw.endswith(b"\n"):  # discard the rest
                raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            reply = None
            try:
                if too_long:
                    raise ServiceError(
                        "line_too_long", f"lines are limited to {MAX_LINE_BYTES} bytes"
                    )
                line = raw.strip()
                if not line:
                    continue
                try:
                    msg = decode_json(line)
                except ValueError as exc:
                    raise ServiceError("parse", f"not a JSON line: {exc}")
                if not isinstance(msg, dict):
                    raise ServiceError("parse", "message must be a JSON object")
                mtype = msg.get("type")
                if mtype == "sensor_update":
                    state.apply_sensor_update(msg)
                elif mtype == "route_request":
                    reply = state.plan_route(msg)
                else:
                    raise ServiceError("unknown_type", f"unknown type {mtype!r}")
            except ServiceError as exc:
                reply = {"type": "error", "code": exc.code, "detail": exc.detail}
            except Exception as exc:  # keep the connection alive
                log.exception("internal error handling message")
                reply = {"type": "error", "code": "internal", "detail": str(exc)}
            if reply is not None:
                self.wfile.write(_reply_line(reply))
                self.wfile.flush()


def _reply_line(reply: dict) -> bytes:
    return (json.dumps(reply, separators=(",", ":")) + "\n").encode("utf-8")


class RouteService(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, scenario: Scenario, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.state = ServiceState(scenario)
        self.open_connections = 0  # handler threads not yet ended
        self._count_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._count_lock:
            admitted = self.open_connections < MAX_CONNECTIONS
            if admitted:
                self.open_connections += 1
        if not admitted:
            try:
                request.sendall(_reply_line({
                    "type": "error", "code": "busy",
                    "detail": f"the service serves at most {MAX_CONNECTIONS} "
                              "connections at once"}))
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._release()

    def _release(self):
        with self._count_lock:
            self.open_connections -= 1

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_forever(scenario: Scenario, host: str, port: int) -> None:
    with RouteService(scenario, host, port) as server:
        log.info("route service listening on %s:%d", host, server.port)
        server.serve_forever()
