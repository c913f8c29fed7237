"""Discrete-time mesoscopic traffic engine.

Vehicles move link by link at the speed implied by their current link's true
vehicle count (linear density-speed law); links hosting an active event force
speed 0. Transfers between links are FIFO and capacity-gated, so a link never
holds more than k_max * length vehicles. Connected vehicles are routed by the
route service's cloud loop (`TwinState.ingest_arrays`, `TwinState.detect`,
`TwinState.masked_journey_times` into `PlannerState.update`, the search);
unconnected vehicles follow their static shortest-distance route. A planned
route, new or re-planned, reaches its vehicle through one loop: a service
latency (`comms.SERVICE_FLOWS`), a delivery draw and one in-time rule
(`Engine._in_time`). The scenario caps steps, vehicles and spawn rate.

Step phases, in fixed order: spawn, event schedule, sensing and twin ingest,
event detection, route planning and delivery, movement, bookkeeping. One run
is single-threaded and fully determined by its scenario, whose `sim.seed`
seeds every random stream (`Scenario.with_seed` sets it).

No step phase loops over the vehicles ever spawned. The vehicles on the
network live in packed engine arrays: slot k < `Engine._on` holds one
vehicle's position, link, vid and connected flag (`Vehicle.slot` points
back, `Engine.position` reads a position). A vehicle takes the next slot
when it enters its first link, a transfer rewrites its slot's link and
zeroes its position, and an arrival moves the last slot into its place.
Movement writes only the queues and the slots: the capacity gate reads the
target queue's length, and `Engine.link_counts` is derived from the slots'
links once, at the end of movement. Movement advances every slot in one
numpy step. Queues are FIFO and ordered by position, so only an open link
with some vehicle at its end can release anyone; the transfer loop visits
just those links, in index order (a vehicle moved in that loop lands at
position 0, never at an end). Spawned vehicles not yet on a link wait in
`Engine._waiting`, in vid order: movement enters them from there and
planning takes its new users from there. Sensing and the full re-plan scan
read the connected vehicles off the slots. Bookkeeping visits only closed
links and the in-links of their start nodes. Every active event closes the
links it is counted on, so only there can a vehicle encounter an event or be
blocked. The delivered RSU readings reach the twin in one batched ingest and
the connected vehicles' in one more, both through `Engine._ingest`. The
engine keeps one `nav.PlannerState`: its journey-time rows are built on the
first step that searches and then patched, on steps that search, where a
link's time changed. A step searches when a connected user waits for a
route, or a live route's remaining links cross a link the masked journey
times put at +inf, unless every such pair is in the planner's no-path memo,
which holds until the +inf link set changes. Every live connected route is
checked against that set only on steps where it changed; otherwise only last
step's affected routes and the vehicles that entered the network in the last
movement are. Shortest-distance trees cached on the network decide which
destinations a spawn may draw and give unconnected vehicles their static
routes, so runs on one network (a sweep) search each origin once. RSU
coverage is decided once per engine, by `Scenario.rsu_coverage`. A step
still does O(links) work in numpy (link speeds, masked journey times, the
head and closed-link scans).

The engine writes no files: observers read it through `on_step` after each
step's bookkeeping (see `Engine`), and `journal_writer` writes the journals.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import nav
from .comms import FlowStreams, check_deadline, deliver, sample_service_latency
from .errors import ConfigError
from .network import END_TOLERANCE_M, link_speeds
from .scenario import Scenario
from .twin import TwinState

CAV = "cav"
UNCONNECTED = "unconnected"
_END_EPS = END_TOLERANCE_M  # every link is longer (the loader checks)
_CAP_EPS = 1e-9
_NO_NODES = np.empty(0, dtype=np.intp)  # the node ids of a vehicle batch


@dataclass(slots=True)
class Vehicle:
    vid: int
    klass: str
    origin: int
    destination: int
    entry_step: int
    route: nav.Route | None = None
    link_idx: int | None = None
    slot: int | None = None  # index into the engine's packed arrays while on a link
    arrival_step: int | None = None
    encountered: set = field(default_factory=set)
    blocked: bool = False

    @property
    def arrived(self) -> bool:
        return self.arrival_step is not None


@dataclass(frozen=True)
class ActiveEvent:
    kind: str  # "accident" | "gathering"
    link_idx: int | None
    node: int | None
    onset_step: int
    end_step: int | None  # active during [onset_step, end_step); None = forever
    density: float

    def active(self, step: int) -> bool:
        if step < self.onset_step:
            return False
        return self.end_step is None or step < self.end_step


@dataclass(frozen=True)
class MetricsSummary:
    spawned_cav: int
    spawned_unconnected: int
    completed_cav: int
    completed_unconnected: int
    mean_tt_cav_s: float
    mean_tt_unconnected_s: float
    mean_tt_overall_s: float
    mean_enc_cav: float
    mean_enc_unconnected: float
    mean_enc_overall: float
    blocking_cav: float
    blocking_unconnected: float
    blocking_overall: float

    CSV_FIELDS = (
        "mean_tt_cav_s",
        "mean_tt_unconnected_s",
        "mean_tt_overall_s",
        "mean_enc_cav",
        "mean_enc_unconnected",
        "mean_enc_overall",
        "blocking_cav",
        "blocking_unconnected",
        "blocking_overall",
    )

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)

    def csv_row(self) -> str:
        return ",".join(f"{getattr(self, f):.6f}" for f in self.CSV_FIELDS)


# Largest rate drawn in one product loop: exp(-lam) underflows near 745.
_POISSON_CHUNK = 500.0


def poisson_draw(rng: random.Random, lam: float) -> int:
    """Knuth's product method, over chunks of rate at most _POISSON_CHUNK
    whose draws add up (a sum of Poisson variates is Poisson)."""
    k = 0
    while lam > 0:
        chunk = min(lam, _POISSON_CHUNK)
        threshold = math.exp(-chunk)
        p = rng.random()
        while p > threshold:
            k += 1
            p *= rng.random()
        lam -= chunk
    return k


class Engine:
    """One run of a scenario. The engine writes no files: observers read it
    through `on_step(engine, step)`, which runs after each step's
    bookkeeping. `applied_routes` holds that step's routes as (vehicle,
    "new" | "replan") in the order they were applied: new users first, then
    re-plans, each in vid order."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        single_v2c: bool = False,
        on_step=None,
    ):
        self.scenario = scenario
        self.seed = scenario.sim.seed
        self.single_v2c = single_v2c
        self.on_step = on_step
        self.applied_routes: list[tuple[Vehicle, str]] = []

        net = scenario.network
        self.net = net
        self.dt = scenario.sim.dt_s
        self.n_steps = scenario.sim.n_steps

        self.rng_spawn = random.Random(f"{self.seed}/spawn")
        self.streams = FlowStreams(self.seed)

        self.events = self._materialize_events()
        self.twin = TwinState(net, scenario.thresholds)

        self.vehicles: list[Vehicle] = []  # every spawned vehicle; vid - 1 = index
        self._waiting: list[Vehicle] = []  # spawned, not yet on a link, vid order
        # Packed on-network state, one slot per vehicle on a link: slots
        # 0.._on-1 are in use, and at most n_vel vehicles are ever on links.
        n_vel = scenario.traffic.n_vel
        self._on = 0
        self._pos = np.zeros(n_vel)
        self._link = np.zeros(n_vel, dtype=np.intp)
        self._vid = np.zeros(n_vel, dtype=np.int64)
        self._cav = np.zeros(n_vel, dtype=bool)
        self.link_counts = np.zeros(net.link_count, dtype=np.int64)
        self.link_queues: list[deque[Vehicle]] = [
            deque() for _ in range(net.link_count)
        ]
        self.link_capacity = (net.k_max * net.lengths).tolist()
        self._ends = net.lengths - _END_EPS  # at or past this, at the end

        # RSU coverage is static: (link indices, node ids) per RSU, id = position.
        self._rsu_cov = scenario.rsu_coverage()

        self.step = -1
        self.speeds = np.zeros(net.link_count)
        self.closed = np.zeros(net.link_count, dtype=bool)
        self.truth_density = np.zeros(net.node_count + 1)
        self._events_on_link: dict[int, list[int]] = {}
        self._events_at_node: dict[int, list[int]] = {}
        self._spawn_lam = scenario.spawn_rate()
        self.planner = nav.PlannerState(net)  # rows built on the first search
        # Connected vehicles whose route may cross the +inf link set while it
        # stands: last plan's affected and those that entered since.
        self._replan_candidates: list[Vehicle] = []

    # ------------------------------------------------------------------ setup

    def _materialize_events(self) -> list[ActiveEvent]:
        sc = self.scenario
        net = self.net
        dt = self.dt
        # (kind, link index, node, onset_s, end_s, density) of every event.
        raw = [(spec.kind, None if spec.link is None else net.link_index[spec.link],
                spec.node, spec.onset_s, spec.end_s, spec.density)
               for spec in sc.events]
        er = sc.events_random
        if er is not None and er.count:
            rng = random.Random(f"{self.seed}/events")
            kinds = [rng.choice(er.kinds) for _ in range(er.count)]
            # The scenario checked that the count fits: the last draws of a
            # kind with more events than places become the other kind.
            for kind, other, room in (("accident", "gathering", net.link_count),
                                      ("gathering", "accident", net.node_count)):
                surplus = kinds.count(kind) - room
                if surplus > 0:
                    for k in [k for k, x in enumerate(kinds) if x == kind][-surplus:]:
                        kinds[k] = other
            acc_links = iter(rng.sample(range(net.link_count), kinds.count("accident")))
            gat_nodes = iter(rng.sample(range(1, net.node_count + 1),
                                        kinds.count("gathering")))
            lo, hi = sc.onset_window()
            for kind in kinds:
                onset = rng.uniform(lo, hi)
                end = None if er.duration_s is None else onset + er.duration_s
                if kind == "accident":
                    raw.append((kind, next(acc_links), None, onset, end, er.density))
                else:
                    raw.append((kind, None, next(gat_nodes), onset, end, er.density))
        t_end = sc.sim.t_sim_s

        def to_step(t: float) -> int:
            # A time before 0 means step 0 and one at or past the run's end is
            # never reached, so clamping to the run changes no step's events
            # and keeps the quotient inside float range.
            return int(round(min(max(t, 0.0), t_end) / dt))

        return [ActiveEvent(kind=kind, link_idx=link_idx, node=node,
                            onset_step=to_step(onset),
                            end_step=None if end is None else to_step(end),
                            density=density)
                for kind, link_idx, node, onset, end, density in raw]

    # ------------------------------------------------------------- step phases

    def _spawn(self, step: int) -> None:
        remaining = self.scenario.traffic.n_vel - len(self.vehicles)
        if remaining <= 0:
            return
        n = min(poisson_draw(self.rng_spawn, self._spawn_lam), remaining)
        m = self.net.node_count
        for _ in range(n):
            klass = CAV if self.rng_spawn.random() < self.scenario.traffic.p_user \
                else UNCONNECTED
            for _ in range(1000):
                origin = self.rng_spawn.randrange(1, m + 1)
                dest = self.rng_spawn.randrange(1, m + 1)
                nodes = None if dest == origin else self.net.static_route(origin, dest)
                if nodes is not None:
                    break
            else:
                raise ConfigError(
                    "could not draw a reachable origin-destination pair; "
                    "the network is too disconnected"
                )
            vid = len(self.vehicles) + 1
            veh = Vehicle(
                vid=vid, klass=klass, origin=origin, destination=dest,
                entry_step=step,
            )
            if klass == UNCONNECTED:
                veh.route = nav.Route(nodes=nodes)
            self.vehicles.append(veh)
            self._waiting.append(veh)

    def _update_events(self, step: int) -> None:
        net = self.net
        self.closed[:] = False
        self.truth_density[:] = 0.0
        self._events_on_link = {}
        self._events_at_node = {}
        for idx, ev in enumerate(self.events):
            if not ev.active(step):
                continue
            if ev.kind == "accident":
                self.closed[ev.link_idx] = True
                self._events_on_link.setdefault(ev.link_idx, []).append(idx)
            else:
                for li in net.in_links[ev.node]:
                    self.closed[li] = True
                self.truth_density[ev.node] = max(
                    self.truth_density[ev.node], ev.density
                )
                self._events_at_node.setdefault(ev.node, []).append(idx)

    def _compute_speeds(self) -> None:
        v = link_speeds(self.net, self.link_counts)
        v[self.closed] = 0.0
        self.speeds = v

    def _sense_and_ingest(self, step: int) -> None:
        now = step * self.dt
        occupied = self.link_counts > 0
        model = self.scenario.latency
        ssms_rng = self.streams.rng("pdr_ssms")
        info_rng = self.streams.rng("pdr_info")
        # One batch for the delivered RSUs, then one for the delivered vehicle
        # readings. Readers of one link or node report its same true state,
        # so duplicate indices write equal values.
        rsu_ids: list[int] = []
        rsu_links: list[np.ndarray] = []
        rsu_nodes: list[np.ndarray] = []
        for rsu_id, (link_idx, node_idx) in enumerate(self._rsu_cov):
            if deliver(model.pdr_ssms, ssms_rng):
                rsu_ids.append(rsu_id)
                rsu_links.append(link_idx)
                rsu_nodes.append(node_idx)
        if rsu_ids:
            self._ingest(("rsu", rsu_ids), np.concatenate(rsu_links),
                         np.concatenate(rsu_nodes), occupied, now)
        # One delivery draw per connected vehicle on a link, in vid order.
        n = self._on
        vehicles = self.vehicles
        cav_ids: list[int] = []
        cav_links: list[int] = []
        for vid in np.sort(self._vid[:n][self._cav[:n]]).tolist():
            if deliver(model.pdr_info, info_rng):
                cav_ids.append(vid)
                cav_links.append(vehicles[vid - 1].link_idx)
        if cav_ids:
            self._ingest(("cav", cav_ids), np.array(cav_links, dtype=np.intp),
                         _NO_NODES, occupied, now)

    def _ingest(self, sources: tuple[str, list[int]], li: np.ndarray,
                ni: np.ndarray, occupied: np.ndarray, now: float) -> None:
        """Hand the twin this step's truth at link indices `li` and node ids
        `ni`, as read by `sources` (kind, [id, ...])."""
        self.twin.ingest_arrays(sources, li, self.link_counts[li], self.speeds[li],
                                occupied[li], ni, self.truth_density[ni], now)

    def _detect(self, step: int) -> None:
        # Flagged elements stay until their scheduled cause ends; elements with
        # no scheduled cause (emergent jams) may clear on any recovery evidence.
        # _update_events keyed this step's active events by node and link. A flag
        # raised in this pass cannot clear in it, so the sets may be taken first.
        twin = self.twin
        twin.detect(step * self.dt, twin.event_nodes.difference(self._events_at_node),
                    twin.event_links.difference(self._events_on_link))

    def _plan(self, step: int) -> None:
        planner = self.planner
        reblocked = planner.update(self.twin.masked_journey_times())
        new_users = {
            v.vid: (v.origin, v.destination) for v in self._waiting if v.klass == CAV
        }
        # replan_affected's test, read off the +inf links: only these routes
        # are re-planned, so only they can need the rows. A remaining route
        # only loses links (the cursor moves on, a re-plan avoids the +inf
        # set), so while that set stands, a route that did not cross it
        # still does not: re-check only last step's affected routes and the
        # vehicles that entered the network since.
        if reblocked:  # every connected vehicle on a link, in slot order
            n = self._on
            candidates = [self.vehicles[vid - 1]
                          for vid in self._vid[:n][self._cav[:n]].tolist()]
        else:
            candidates = self._replan_candidates
        blocked = planner.blocked
        self._replan_candidates = hits = [
            v for v in candidates
            if v.link_idx is not None and not blocked.isdisjoint(v.route.remaining_links())
        ]
        affected = {v.vid: v.route for v in hits}
        no_path = planner.no_path
        if all(pair in no_path for pair in new_users.values()) and all(
            (r.next_node, r.destination) in no_path for r in affected.values()
        ):
            return  # no search this step, so no rows
        inp = nav.PlanningInput(matrix=planner.rows(), new_users=new_users,
                                no_path=no_path)
        latency = self.scenario.latency
        vehicles = self.vehicles  # vids are 1-based spawn order
        # Entering users first, then re-plans; each route in vid order draws
        # its service latency, then its delivery. A lost or late route is
        # asked for again on a later step.
        for outcome in (nav.plan_new_users(inp), nav.replan_affected(inp, affected)):
            for vid in sorted(outcome.routes):
                veh = vehicles[vid - 1]
                route = outcome.routes[vid]
                t_svc = sample_service_latency(latency, self.streams, self.single_v2c)
                if not deliver(latency.pdr_info, self.streams.rng("pdr_info")):
                    continue  # response lost
                if not self._in_time(veh, route, t_svc):
                    continue
                entering = veh.link_idx is None
                veh.route = route if entering else nav.spliced_route(veh.route, route)
                self._journal_route(veh, "new" if entering else "replan")

    def _in_time(self, veh: Vehicle, route: nav.Route, t_svc: float) -> bool:
        """Whether a route served after t_svc seconds can be applied. An
        entering user's must fit the request-distance budget at its first
        link's v_free; a re-plan must arrive before the vehicle reaches the
        next intersection, and a stopped vehicle has unlimited time."""
        net = self.net
        if veh.link_idx is None:
            first = net.link_index[(route.nodes[0], route.nodes[1])]
            return check_deadline(t_svc, net.v_free.item(first))
        v_now = self.speeds[veh.link_idx]
        return v_now <= 0 or \
            t_svc <= (net.lengths[veh.link_idx] - self.position(veh)) / v_now

    def position(self, veh: Vehicle) -> float:
        """Metres a vehicle on the network has covered of its current link."""
        return self._pos.item(veh.slot)

    def _move(self, step: int) -> None:
        net = self.net
        capacity = self.link_capacity
        queues = self.link_queues
        pos, link = self._pos, self._link
        # One advance for every slot. Speeds are >= 0 (the law clamps at 0,
        # closed links are 0), so a stopped link's vehicles gain 0.0.
        n = self._on
        on = link[:n]
        np.minimum(pos[:n] + (self.speeds * self.dt)[on], net.lengths[on],
                   out=pos[:n])
        # FIFO head transfers. A queue's positions do not increase from head
        # to tail, so only links with a vehicle at their end can release
        # anyone, and a vehicle moved here lands at 0.0, never at an end. A
        # closed link releases nobody.
        ends = self._ends
        heads = np.zeros(net.link_count, dtype=bool)
        heads[on[pos[:n] >= ends[on]]] = True
        heads &= ~self.closed
        for li in np.flatnonzero(heads).tolist():
            dq = queues[li]
            end = ends[li]
            while dq and pos[dq[0].slot] >= end:
                veh = dq[0]
                route = veh.route
                if route.cursor == len(route.nodes) - 1:
                    dq.popleft()
                    veh.link_idx = None
                    veh.arrival_step = step
                    self._vacate(veh)
                    continue
                nxt = net.link_index[
                    (route.nodes[route.cursor], route.nodes[route.cursor + 1])
                ]
                # Strict gate: occupancy stays below jam capacity, so an open
                # link always keeps a positive speed and can drain.
                if len(queues[nxt]) + 1 > capacity[nxt] - _CAP_EPS:
                    break  # no room downstream; the whole queue waits
                dq.popleft()
                route.cursor += 1
                veh.link_idx = nxt
                link[veh.slot] = nxt
                pos[veh.slot] = 0.0
                queues[nxt].append(veh)
        # Routed vehicles still outside the network enter their first link,
        # in vid order. Connected ones join the next plan's re-plan
        # candidates.
        entered = self._replan_candidates
        waiting = []
        for veh in self._waiting:
            route = veh.route
            if route is None:
                waiting.append(veh)
                continue
            first = net.link_index[(route.nodes[0], route.nodes[1])]
            if len(queues[first]) + 1 > capacity[first] - _CAP_EPS:
                waiting.append(veh)
                continue
            veh.link_idx = first
            queues[first].append(veh)
            k = veh.slot = self._on
            self._on = k + 1
            pos[k] = 0.0
            link[k] = first
            self._vid[k] = veh.vid
            self._cav[k] = veh.klass == CAV
            if veh.klass == CAV:
                entered.append(veh)
        self._waiting = waiting
        self.link_counts = np.bincount(link[:self._on], minlength=net.link_count)

    def _vacate(self, veh: Vehicle) -> None:
        """Free an arriving vehicle's slot: the last slot moves into it."""
        k, last = veh.slot, self._on - 1
        if k != last:
            for arr in (self._pos, self._link, self._vid, self._cav):
                arr[k] = arr[last]
            self.vehicles[self._vid.item(k) - 1].slot = k
        self._on = last
        veh.slot = None

    def _bookkeep(self, step: int) -> None:
        # Every active event closes the links it is counted on, so encounters
        # and blocking happen only on closed links and at the ends of the
        # links that feed them.
        net = self.net
        ends = self._ends
        queues = self.link_queues
        for li in np.flatnonzero(self.closed).tolist():
            frm, to = net.pairs[li]
            events = self._events_on_link.get(li, []) + self._events_at_node.get(to, [])
            for veh in queues[li]:
                veh.encountered.update(events)
                veh.blocked = True
            # Waiting at the end of an in-link to enter li. Queues are FIFO
            # by position, so the vehicles at the end lead.
            for up in net.in_links[frm]:
                end = ends[up]
                for veh in queues[up]:
                    if self.position(veh) < end:
                        break
                    nodes, cursor = veh.route.nodes, veh.route.cursor
                    if cursor < len(nodes) - 1 and nodes[cursor + 1] == to:
                        veh.blocked = True

    def _journal_route(self, veh: Vehicle, reason: str) -> None:
        """Record a route applied this step, once per route."""
        self.applied_routes.append((veh, reason))

    # --------------------------------------------------------------------- run

    def run(self) -> MetricsSummary:
        """Run every step and return the metrics. `on_step`, if given,
        observes the engine after each step's bookkeeping."""
        for step in range(self.n_steps):
            self.step = step
            self.applied_routes = []
            self._spawn(step)
            self._update_events(step)
            self._compute_speeds()
            self._sense_and_ingest(step)
            self._detect(step)
            self._plan(step)
            self._move(step)
            self._bookkeep(step)
            if self.on_step is not None:
                self.on_step(self, step)
        return self.metrics()

    def metrics(self) -> MetricsSummary:
        dt = self.dt

        def klass_of(k):
            return [v for v in self.vehicles if v.klass == k]

        def mean(xs):
            return sum(xs) / len(xs) if xs else math.nan

        def tt(vehs):
            return [
                (v.arrival_step - v.entry_step) * dt for v in vehs if v.arrived
            ]

        cav, unc = klass_of(CAV), klass_of(UNCONNECTED)
        done_cav, done_unc = tt(cav), tt(unc)
        return MetricsSummary(
            spawned_cav=len(cav),
            spawned_unconnected=len(unc),
            completed_cav=len(done_cav),
            completed_unconnected=len(done_unc),
            mean_tt_cav_s=mean(done_cav),
            mean_tt_unconnected_s=mean(done_unc),
            mean_tt_overall_s=mean(done_cav + done_unc),
            mean_enc_cav=mean([len(v.encountered) for v in cav]),
            mean_enc_unconnected=mean([len(v.encountered) for v in unc]),
            mean_enc_overall=mean([len(v.encountered) for v in self.vehicles]),
            blocking_cav=mean([1.0 if v.blocked else 0.0 for v in cav]),
            blocking_unconnected=mean([1.0 if v.blocked else 0.0 for v in unc]),
            blocking_overall=mean(
                [1.0 if v.blocked else 0.0 for v in self.vehicles]
            ),
        )


def run(
    scenario: Scenario,
    *,
    single_v2c: bool = False,
    on_step=None,
) -> MetricsSummary:
    """Run one simulation to completion and return its metrics. The engine
    writes no files: `on_step(engine, step)`, if given, observes it after
    each step's bookkeeping and may read that step's routes off
    `Engine.applied_routes`. `journal_writer` builds one that writes the
    journals."""
    return Engine(scenario, single_v2c=single_v2c, on_step=on_step).run()


def journal_writer(twin_fh=None, routes_fh=None):
    """An `on_step` that writes one twin snapshot per step to `twin_fh` and
    each route applied that step to `routes_fh`, one JSON object a line.
    Either file may be None, and then that journal is not written."""

    def on_step(eng: Engine, step: int) -> None:
        if twin_fh is not None:
            doc = {"step": step, "time_s": step * eng.dt}
            doc.update(eng.twin.snapshot_dict())
            twin_fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        if routes_fh is not None:
            for veh, reason in eng.applied_routes:
                routes_fh.write(json.dumps(
                    {"step": step, "vehicle": veh.vid,
                     "route": list(veh.route.nodes), "reason": reason},
                    separators=(",", ":")) + "\n")

    return on_step
