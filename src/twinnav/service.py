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
{"type": "error", "code": "unknown_type"}; unparsable lines answer
{"type": "error", "code": "parse"} and keep the connection open. A line longer
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

Sensor updates feed a live twin through `twin.ingest_readings`; a source
covers exactly what it reports. The service clock follows the largest
`time_s` seen; an update without `time_s` is taken one step after the clock,
and one whose `time_s` is older than the clock is taken at the clock. Each
update re-runs event detection against the twin's own thresholds and clears
every flag whose latest reading no longer meets its criterion (the service
has no scheduled causes). Route requests plan over event-masked journey-time
rows of the twin's current volumes and flags; the rows' keys are the graph.
The state keeps one `nav.PlannerState` under its lock, so a request patches
only the links whose journey time changed since the last request, and a pair
found to have no path answers unreachable without a search until the set of
+inf links changes. A request whose position is its destination answers
`degenerate_request`.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading

from . import nav
from .errors import ContractError, json_int, json_number
from .scenario import Scenario
from .twin import (
    TwinState,
    clear_resolved_events,
    detect_accident,
    detect_pedestrian_gathering,
    ingest_readings,
)

log = logging.getLogger(__name__)

# Longest line read, newline included. A sensor update of a large RSU (about
# 100 links) is ~10 KB.
MAX_LINE_BYTES = 1 << 20


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
        # ((from, to), (volume, speed_mps, occupied)) in arrival order; the
        # twin checks every reading and keeps a repeated link's last.
        links: list[tuple[tuple[int, int], tuple[float, float, bool]]] = []
        for item in link_items:
            try:
                pair = (json_int(item["from"]), json_int(item["to"]))
                occupied = item["occupied"]
                if occupied is not True and occupied is not False:
                    raise ValueError(f"occupied must be true or false, got {occupied!r}")
                links.append((pair, (json_number(item["volume"]),
                                     json_number(item["speed_mps"]), occupied)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError("bad_request", "link readings need from, to, volume, "
                                   f"speed_mps, occupied ({exc})")
        nodes: list[tuple[int, float]] = []
        for item in node_items:
            try:
                nodes.append((json_int(item["id"]), json_number(item["density"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError("bad_request", f"node readings need id and density ({exc})")

        with self.lock:
            # A reading older than the clock is taken at the clock, so no slow
            # run starts before the clock at which its first reading arrived.
            if time_s is None:
                now = self.clock_s + self.dt_s
            else:
                now = max(self.clock_s, time_s)
            try:
                link_idx = ingest_readings(self.twin, (kind, [source_id]), links, nodes, now)
            except ContractError as exc:
                raise ServiceError("bad_request", str(exc))
            self.clock_s = now
            detect_pedestrian_gathering(self.twin)
            detect_accident(self.twin, self.clock_s)
            # No scheduled causes here, so any flag may clear on recovery
            # evidence. Only what this update read can have recovered: every
            # other flag already failed the test after its last reading.
            clear_resolved_events(self.twin, (n for n, _ in nodes), link_idx)

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
    def handle(self):
        state: ServiceState = self.server.state
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                break
            reply = None
            try:
                if len(raw) > MAX_LINE_BYTES:
                    while raw and not raw.endswith(b"\n"):  # discard the rest
                        raw = self.rfile.readline(MAX_LINE_BYTES + 1)
                    raise ServiceError(
                        "line_too_long", f"lines are limited to {MAX_LINE_BYTES} bytes"
                    )
                line = raw.strip()
                if not line:
                    continue
                try:
                    msg = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
                self.wfile.write(
                    (json.dumps(reply, separators=(",", ":")) + "\n").encode("utf-8")
                )
                self.wfile.flush()


class RouteService(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, scenario: Scenario, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.state = ServiceState(scenario)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_forever(scenario: Scenario, host: str, port: int) -> None:
    with RouteService(scenario, host, port) as server:
        log.info("route service listening on %s:%d", host, server.port)
        server.serve_forever()
