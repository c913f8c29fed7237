"""Scenario files: everything one simulation run needs, in a single JSON
document. See README for the full schema. Paths inside the file resolve
relative to the file's directory. Ids and counts (event nodes and links, RSU
nodes, sim.seed, traffic.n_vel, events_random.count) must be JSON integers,
and every other number a finite JSON number (`errors.json_number`). Every
field is read by the one field reader, `errors.json_field`, so an error names
the file, the block and the key; `errors.build_params` builds each parameter
class and names the block of its range error.

The parameter classes check their own ranges, so the loader and the
`Scenario.with_*` helpers share one check each. `Scenario` itself checks that
its random events fit: no more than the links and nodes their kinds can use,
in a non-empty onset window; a sweep builds every point, and so runs this
check, before its first run. Five caps bound one run: MAX_STEPS steps,
MAX_VEHICLES vehicles, MAX_SPAWN_RATE spawns a step (`Scenario.spawn_rate`,
the engine's Poisson rate), MAX_EVENTS explicit events and MAX_RSUS RSUs;
the network loader caps nodes and links. Random events take the explicit
events' ranges: no negative duration or density. The scenario owns the run
seed (`sim.seed`, set by `with_seed`). `Scenario.rsu_coverage` is the one
place that decides what an RSU covers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .comms import FlowLatency, LatencyModel, DEFAULT_FLOWS
from .errors import ConfigError, build_params, json_field, json_int, json_number, \
    json_str, read_json
from .network import TrafficNetwork, load_network, network_from_dict
from .twin import EventThresholds

EVENT_KINDS = ("accident", "gathering")
DEFAULT_GATHERING_DENSITY = 1.0  # persons/m^2 of an active gathering

# Caps on the size of one run: each step costs at least a few microseconds of
# numpy work per link, and each vehicle one object, so past these a run would
# not end in reasonable time or memory.
MAX_STEPS = 1_000_000  # t_sim_s / dt_s
MAX_VEHICLES = 1_000_000  # traffic.n_vel
MAX_SPAWN_RATE = 10_000  # mean spawns per step while the spawn window is open
MAX_EVENTS = 10_000  # explicit events; each step walks every event
MAX_RSUS = 10_000  # sensing.rsus; coverage costs one distance per RSU and node


@dataclass(frozen=True)
class EventSpec:
    kind: str  # "accident" on a link, "gathering" at a node
    node: int | None = None
    link: tuple[int, int] | None = None
    onset_s: float = 0.0
    end_s: float | None = None  # None: never clears within the run
    density: float = DEFAULT_GATHERING_DENSITY


@dataclass(frozen=True)
class RandomEvents:
    count: int
    kinds: tuple[str, ...] = EVENT_KINDS
    onset_min_s: float | None = None
    onset_max_s: float | None = None  # default: half the simulated horizon
    duration_s: float | None = None  # None: events persist to the end of the run
    density: float = DEFAULT_GATHERING_DENSITY

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"events_random.count must be >= 0, got {self.count}")
        if not self.kinds or any(k not in EVENT_KINDS for k in self.kinds):
            raise ConfigError(
                f"events_random.kinds must be a non-empty subset of {EVENT_KINDS}"
            )
        if self.duration_s is not None and self.duration_s < 0:
            raise ConfigError(f"events_random.duration_s must be >= 0, got {self.duration_s}")
        if self.density < 0:
            raise ConfigError(f"events_random.density must be >= 0, got {self.density}")


@dataclass(frozen=True)
class RsuSpec:
    node: int
    radius_m: float


@dataclass(frozen=True)
class SimParams:
    dt_s: float
    t_sim_s: float
    seed: int

    def __post_init__(self):
        if self.dt_s <= 0:
            raise ConfigError("sim.dt_s must be > 0")
        if self.t_sim_s <= 0:
            raise ConfigError("sim.t_sim_s must be > 0")
        if not self.t_sim_s / self.dt_s <= MAX_STEPS:  # an infinite quotient fails
            raise ConfigError(
                f"sim.t_sim_s / sim.dt_s is {self.t_sim_s / self.dt_s:.6g} steps, "
                f"more than {MAX_STEPS}")
        if abs(self.n_steps * self.dt_s - self.t_sim_s) > 1e-9:
            raise ConfigError("sim.t_sim_s must be a multiple of sim.dt_s")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_sim_s / self.dt_s))


@dataclass(frozen=True)
class TrafficParams:
    n_vel: int
    p_user: float
    spawn_window_frac: float = 0.8

    def __post_init__(self):
        if not 0 <= self.n_vel <= MAX_VEHICLES:
            raise ConfigError(
                f"traffic.n_vel must be within [0, {MAX_VEHICLES}], got {self.n_vel}")
        if not 0.0 <= self.p_user <= 1.0:
            raise ConfigError(f"traffic.p_user must be within [0, 1], got {self.p_user}")
        if not 0.0 < self.spawn_window_frac <= 1.0:
            raise ConfigError("spawn.window_frac must be in (0, 1]")


@dataclass(frozen=True)
class Scenario:
    network: TrafficNetwork
    sim: SimParams
    traffic: TrafficParams
    events: tuple[EventSpec, ...] = ()
    events_random: RandomEvents | None = None
    rsus: tuple[RsuSpec, ...] = ()
    thresholds: EventThresholds = EventThresholds()
    latency: LatencyModel = LatencyModel()
    source_path: str = "<scenario>"

    def __post_init__(self):
        rate = self.spawn_rate()
        if rate > MAX_SPAWN_RATE:
            raise ConfigError(
                f"{self.source_path}: spawn rate {rate:.6g} vehicles a step is more "
                f"than {MAX_SPAWN_RATE}: traffic.n_vel over spawn.window_frac of "
                f"the {self.sim.n_steps} steps")
        er = self.events_random
        if er is None:
            return
        net = self.network
        room = (net.link_count if "accident" in er.kinds else 0) + (
            net.node_count if "gathering" in er.kinds else 0)
        if er.count > room:
            raise ConfigError(
                f"{self.source_path}: events_random.count {er.count} exceeds the "
                f"{room} links and nodes its kinds {list(er.kinds)} can use")
        lo, hi = self.onset_window()
        if hi < lo:
            raise ConfigError(
                f"{self.source_path}: events_random onset window [{lo}, {hi}] s "
                f"is empty")

    def spawn_rate(self) -> float:
        """Mean spawns per step while the spawn window is open: traffic.n_vel
        over the window's steps, and 0 for a run of no steps."""
        steps = self.sim.n_steps
        if not steps:
            return 0.0
        return self.traffic.n_vel / (self.traffic.spawn_window_frac * steps)

    def onset_window(self) -> tuple[float, float]:
        """[earliest, latest] onset of a random event, in seconds; by default
        from 0 to half the simulated horizon."""
        er = self.events_random
        lo = er.onset_min_s if er.onset_min_s is not None else 0.0
        hi = er.onset_max_s if er.onset_max_s is not None else self.sim.t_sim_s / 2
        return lo, hi

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, sim=replace(self.sim, seed=seed))

    def with_p_user(self, p_user: float) -> "Scenario":
        return replace(self, traffic=replace(self.traffic, p_user=p_user))

    def with_event_count(self, count: int) -> "Scenario":
        if self.events_random is None:
            raise ConfigError(
                "sweeping the event count needs an events_random block"
            )
        return replace(self, events_random=replace(self.events_random, count=count))

    def rsu_coverage(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per RSU in file order, the sorted indices of the links it covers and
        the sorted ids of the nodes it covers. An RSU covers the nodes within
        its radius (`node_distance_m`, a node on the radius included) and the
        links whose both endpoints it covers."""
        net = self.network
        out = []
        for rsu in self.rsus:
            covered = np.zeros(net.node_count + 1, dtype=bool)
            for n in net.nodes:
                covered[n.node_id] = (
                    net.node_distance_m(rsu.node, n.node_id) <= rsu.radius_m)
            out.append((np.flatnonzero(covered[net.from_ids] & covered[net.to_ids]),
                        np.flatnonzero(covered)))
        return out


def _number_or_null(value) -> float | None:
    """A JSON number, or None for null."""
    return None if value is None else json_number(value)


def _node_pair(value) -> tuple[int, int]:
    """A [from, to] pair of node ids."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise TypeError(f"expected a [from, to] pair, got {value!r:.40}")
    return json_int(value[0]), json_int(value[1])


def _parse_event(item: dict, k: int, net: TrafficNetwork, where: str) -> EventSpec:
    w = f"{where}: events[{k}]"
    kind = json_field(item, "kind", json_str, w)
    if kind not in EVENT_KINDS:
        raise ConfigError(f"{w}: kind must be one of {EVENT_KINDS}, got {kind!r}")
    onset = json_field(item, "onset_s", json_number, w, 0.0)
    end_s = json_field(item, "end_s", _number_or_null, w, None)
    density = json_field(item, "density", json_number, w, DEFAULT_GATHERING_DENSITY)
    if end_s is not None and end_s < onset:
        raise ConfigError(f"{w}: end_s precedes onset_s")
    if density < 0:
        raise ConfigError(f"{w}: density must be >= 0, got {density}")
    if kind == "gathering":
        node = json_field(item, "node", json_int, w)
        if node not in net.node_by_id:
            raise ConfigError(f"{w}: unknown node {node}")
        return EventSpec(kind=kind, node=node, onset_s=onset, end_s=end_s, density=density)
    pair = json_field(item, "link", _node_pair, w)
    if net.link_between(*pair) is None:
        raise ConfigError(f"{w}: no link {pair[0]}->{pair[1]} in the network")
    return EventSpec(kind=kind, link=pair, onset_s=onset, end_s=end_s, density=density)


def _parse_latency(doc: dict, source: str) -> LatencyModel:
    where = f"{source}: latency"
    unknown = set(doc) - set(DEFAULT_FLOWS) - {"pdr_ssms", "pdr_info"}
    if unknown:
        raise ConfigError(f"{source}: unknown latency keys {sorted(unknown)}")
    flows = dict(DEFAULT_FLOWS)
    for name in DEFAULT_FLOWS:
        if name in doc:
            spec = json_field(doc, name, dict, where)
            w = f"{where}.{name}"
            flows[name] = build_params(
                FlowLatency, w,
                min_ms=json_field(spec, "min_ms", json_number, w),
                max_ms=json_field(spec, "max_ms", json_number, w),
                dist=json_field(spec, "dist", json_str, w, "uniform"),
                mean_ms=json_field(spec, "mean_ms", json_number, w, None))
    return build_params(
        LatencyModel, source,
        flows=flows,
        pdr_ssms=json_field(doc, "pdr_ssms", json_number, where, 0.9953),
        pdr_info=json_field(doc, "pdr_info", json_number, where, 1.0))


def scenario_from_dict(
    doc: dict, base_dir: str = ".", source: str = "<scenario>"
) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")

    if "network" in doc:
        net = network_from_dict(doc["network"], source=f"{source}: network")
    else:
        rel = json_field(doc, "network_file", json_str, source)
        net = load_network(os.path.join(base_dir, rel))

    sim_doc = json_field(doc, "sim", dict, source)
    w = f"{source}: sim"
    sim = build_params(
        SimParams, source,
        dt_s=json_field(sim_doc, "dt_s", json_number, w),
        t_sim_s=json_field(sim_doc, "t_sim_s", json_number, w),
        seed=json_field(sim_doc, "seed", json_int, w, 0))

    tr_doc = json_field(doc, "traffic", dict, source)
    w = f"{source}: traffic"
    traffic = build_params(
        TrafficParams, source,
        n_vel=json_field(tr_doc, "n_vel", json_int, w),
        p_user=json_field(tr_doc, "p_user", json_number, w),
        spawn_window_frac=json_field(json_field(tr_doc, "spawn", dict, w, {}),
                                     "window_frac", json_number, f"{w}.spawn", 0.8))

    if "events" in doc and "events_random" in doc:
        raise ConfigError(f"{source}: give events or events_random, not both")
    items = json_field(doc, "events", list, source, [])
    if len(items) > MAX_EVENTS:
        raise ConfigError(f"{source}: {len(items)} events, more than {MAX_EVENTS}")
    events = tuple(_parse_event(item, k, net, source) for k, item in enumerate(items))
    events_random = None
    if "events_random" in doc:
        er = json_field(doc, "events_random", dict, source)
        w = f"{source}: events_random"
        events_random = build_params(
            RandomEvents, source,
            count=json_field(er, "count", json_int, w),
            kinds=tuple(json_field(er, "kinds", list, w, EVENT_KINDS)),
            onset_min_s=json_field(er, "onset_min_s", json_number, w, None),
            onset_max_s=json_field(er, "onset_max_s", json_number, w, None),
            duration_s=json_field(er, "duration_s", _number_or_null, w, None),
            density=json_field(er, "density", json_number, w, DEFAULT_GATHERING_DENSITY))

    sensing = json_field(doc, "sensing", dict, source, {})
    rsu_docs = json_field(sensing, "rsus", list, f"{source}: sensing", [])
    if len(rsu_docs) > MAX_RSUS:
        raise ConfigError(f"{source}: {len(rsu_docs)} RSUs, more than {MAX_RSUS}")
    rsus = []
    for k, item in enumerate(rsu_docs):
        w = f"{source}: sensing.rsus[{k}]"
        rsu = RsuSpec(node=json_field(item, "node", json_int, w),
                      radius_m=json_field(item, "radius_m", json_number, w))
        if rsu.node not in net.node_by_id:
            raise ConfigError(f"{w}: unknown node {rsu.node}")
        if rsu.radius_m <= 0:
            raise ConfigError(f"{w}: radius_m must be > 0")
        rsus.append(rsu)

    th_doc = json_field(doc, "thresholds", dict, source, {})
    w = f"{source}: thresholds"
    thresholds = build_params(
        EventThresholds, w,
        density_threshold=json_field(th_doc, "density_threshold", json_number, w, 0.5),
        speed_threshold=json_field(th_doc, "speed_threshold", json_number, w, 0.5),
        accident_window_s=json_field(th_doc, "accident_window_s", json_number, w, 10.0))

    latency = _parse_latency(json_field(doc, "latency", dict, source, {}), source)
    return Scenario(network=net, sim=sim, traffic=traffic, events=events,
                    events_random=events_random, rsus=tuple(rsus),
                    thresholds=thresholds, latency=latency, source_path=source)


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"),
                              base_dir=os.path.dirname(path) or ".", source=path)
