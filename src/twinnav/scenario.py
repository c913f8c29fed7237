"""Scenario files: everything one simulation run needs, in a single JSON
document. See README for the full schema. Paths inside the file resolve
relative to the file's directory. Ids and counts (event nodes and links, RSU
nodes, sim.seed, traffic.n_vel, events_random.count) must be JSON integers,
and every other number a finite JSON number (`errors.json_number`). Each
block is read by one call of `errors.json_fields` or `errors.json_params`
with its table of keys, so a key the block does not know is an error, and an
error names the file, the block and the key.

The parameter classes own their defaults and check their own ranges, so the
loader and the `Scenario.with_*` helpers share one check each; the loader
checks only that a node or link is in the network. `Scenario` itself checks that
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
from .errors import ConfigError, build_params, json_fields, json_int, json_number, \
    json_params, json_str, read_json
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

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ConfigError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        place, other = ("node", "link") if self.kind == "gathering" else ("link", "node")
        if getattr(self, place) is None:
            raise ConfigError(f"missing required key {place!r}")
        if getattr(self, other) is not None:
            raise ConfigError(f"kind {self.kind!r} takes a {place} and no {other}")
        if self.end_s is not None and self.end_s < self.onset_s:
            raise ConfigError("end_s precedes onset_s")
        if self.density < 0:
            raise ConfigError(f"density must be >= 0, got {self.density}")


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

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ConfigError("radius_m must be > 0")


@dataclass(frozen=True)
class SimParams:
    dt_s: float
    t_sim_s: float
    seed: int = 0

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


def _array(value) -> tuple:
    """A JSON array, as a tuple."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {value!r:.40}")
    return tuple(value)


def _parse_event(item: dict, k: int, net: TrafficNetwork, where: str) -> EventSpec:
    w = f"{where}: events[{k}]"
    ev = json_params(EventSpec, item, w, kind=json_str, node=json_int, link=_node_pair,
                     onset_s=json_number, end_s=_number_or_null, density=json_number)
    if ev.node is not None and ev.node not in net.node_by_id:
        raise ConfigError(f"{w}: unknown node {ev.node}")
    if ev.link is not None and net.link_between(*ev.link) is None:
        raise ConfigError(f"{w}: no link {ev.link[0]}->{ev.link[1]} in the network")
    return ev


def _parse_latency(doc: dict, where: str) -> LatencyModel:
    fields = json_fields(doc, where, pdr_ssms=json_number, pdr_info=json_number,
                         **dict.fromkeys(DEFAULT_FLOWS, dict))
    flows = {name: json_params(FlowLatency, fields.pop(name), f"{where}.{name}",
                               min_ms=json_number, max_ms=json_number, dist=json_str,
                               mean_ms=json_number) if name in fields else flow
             for name, flow in DEFAULT_FLOWS.items()}
    return build_params(LatencyModel, where, flows=flows, **fields)


def scenario_from_dict(
    doc: dict, base_dir: str = ".", source: str = "<scenario>"
) -> Scenario:
    top = json_fields(doc, source, network=dict, network_file=json_str, sim=dict,
                      traffic=dict, events=list, events_random=dict, sensing=dict,
                      thresholds=dict, latency=dict)
    for key in ("sim", "traffic") if "network" in top else ("network_file", "sim", "traffic"):
        if key not in top:
            raise ConfigError(f"{source}: missing required key {key!r}")

    if "network" in top:
        net = network_from_dict(top["network"], source=f"{source}: network")
    else:
        net = load_network(os.path.join(base_dir, top["network_file"]))

    sim = json_params(SimParams, top["sim"], f"{source}: sim",
                      dt_s=json_number, t_sim_s=json_number, seed=json_int)

    w = f"{source}: traffic"
    tr = json_fields(top["traffic"], w, n_vel=json_int, p_user=json_number, spawn=dict)
    spawn = json_fields(tr.pop("spawn", {}), f"{w}.spawn", window_frac=json_number)
    traffic = build_params(TrafficParams, w, **tr,
                           **{f"spawn_{key}": value for key, value in spawn.items()})

    if "events" in top and "events_random" in top:
        raise ConfigError(f"{source}: give events or events_random, not both")
    items = top.get("events", [])
    if len(items) > MAX_EVENTS:
        raise ConfigError(f"{source}: {len(items)} events, more than {MAX_EVENTS}")
    events = tuple(_parse_event(item, k, net, source) for k, item in enumerate(items))
    events_random = None
    if "events_random" in top:
        events_random = json_params(
            RandomEvents, top["events_random"], f"{source}: events_random",
            count=json_int, kinds=_array, onset_min_s=json_number,
            onset_max_s=json_number, duration_s=_number_or_null, density=json_number)

    sensing = json_fields(top.get("sensing", {}), f"{source}: sensing", rsus=list)
    rsu_docs = sensing.get("rsus", [])
    if len(rsu_docs) > MAX_RSUS:
        raise ConfigError(f"{source}: {len(rsu_docs)} RSUs, more than {MAX_RSUS}")
    rsus = []
    for k, item in enumerate(rsu_docs):
        w = f"{source}: sensing.rsus[{k}]"
        rsu = json_params(RsuSpec, item, w, node=json_int, radius_m=json_number)
        if rsu.node not in net.node_by_id:
            raise ConfigError(f"{w}: unknown node {rsu.node}")
        rsus.append(rsu)

    thresholds = json_params(
        EventThresholds, top.get("thresholds", {}), f"{source}: thresholds",
        density_threshold=json_number, speed_threshold=json_number,
        accident_window_s=json_number)
    latency = _parse_latency(top.get("latency", {}), f"{source}: latency")
    return Scenario(network=net, sim=sim, traffic=traffic, events=events,
                    events_random=events_random, rsus=tuple(rsus),
                    thresholds=thresholds, latency=latency, source_path=source)


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"),
                              base_dir=os.path.dirname(path) or ".", source=path)
