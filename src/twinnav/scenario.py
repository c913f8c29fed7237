"""Scenario files: everything one simulation run needs, in a single JSON
document. See README for the full schema. Paths inside the file resolve
relative to the file's directory. Ids and counts (event nodes and links, RSU
nodes, sim.seed, traffic.n_vel, events_random.count) must be JSON integers,
and every other number a finite JSON number (`errors.json_number`).

The parameter classes check their own ranges, so the loader and the
`Scenario.with_*` helpers share one check each. `Scenario` itself checks that
its random events fit: no more than the links and nodes their kinds can use,
in a non-empty onset window; a sweep builds every point, and so runs this
check, before its first run. Four caps bound one run: MAX_STEPS steps,
MAX_VEHICLES vehicles, MAX_SPAWN_RATE spawns a step (`Scenario.spawn_rate`,
the engine's Poisson rate) and MAX_EVENTS explicit events; the network loader
caps nodes and links. Random events take the explicit events' ranges:
no negative duration or density. The scenario owns the run seed (`sim.seed`,
set by `with_seed`). `Scenario.rsu_coverage` is the one place that decides
what an RSU covers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .comms import FlowLatency, LatencyModel, DEFAULT_FLOWS
from .errors import ConfigError, json_int, json_number, read_json
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


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return doc[key]


def _typed(value, kind: type, where: str):
    """`value`, checked to be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ConfigError(f"{where} must be {name}, got {value!r:.40}")
    return value


def _parse_event(item: dict, k: int, net: TrafficNetwork, where: str) -> EventSpec:
    w = f"{where}: events[{k}]"
    kind = _require(_typed(item, dict, w), "kind", w)
    if kind not in EVENT_KINDS:
        raise ConfigError(f"{w}: kind must be one of {EVENT_KINDS}, got {kind!r}")
    try:
        onset = json_number(item.get("onset_s", 0.0))
        end = item.get("end_s")
        end_s = None if end is None else json_number(end)
        density = json_number(item.get("density", DEFAULT_GATHERING_DENSITY))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{w}: onset_s, end_s and density must be numbers ({exc})") from exc
    if end_s is not None and end_s < onset:
        raise ConfigError(f"{w}: end_s precedes onset_s")
    if density < 0:
        raise ConfigError(f"{w}: density must be >= 0, got {density}")
    if kind == "gathering":
        try:
            node = json_int(_require(item, "node", w))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{w}: node must be a node id ({exc})") from exc
        if node not in net.node_by_id:
            raise ConfigError(f"{w}: unknown node {node}")
        return EventSpec(kind=kind, node=node, onset_s=onset, end_s=end_s, density=density)
    raw = _require(item, "link", w)
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ConfigError(f"{w}: link must be a [from, to] pair")
    try:
        pair = (json_int(raw[0]), json_int(raw[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{w}: link must be a [from, to] pair ({exc})") from exc
    if net.link_between(*pair) is None:
        raise ConfigError(f"{w}: no link {pair[0]}->{pair[1]} in the network")
    return EventSpec(kind=kind, link=pair, onset_s=onset, end_s=end_s, density=density)


def _parse_latency(doc: dict, where: str) -> LatencyModel:
    doc = _typed(doc, dict, f"{where}: latency")
    flows = dict(DEFAULT_FLOWS)
    known = set(flows) | {"pdr_ssms", "pdr_info"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{where}: unknown latency keys {sorted(unknown)}")
    for name in DEFAULT_FLOWS:
        if name in doc:
            w = f"{where}: latency.{name}"
            spec = _typed(doc[name], dict, w)
            try:
                flows[name] = FlowLatency(
                    min_ms=json_number(spec["min_ms"]),
                    max_ms=json_number(spec["max_ms"]),
                    dist=spec.get("dist", "uniform"),
                    mean_ms=(
                        json_number(spec["mean_ms"]) if "mean_ms" in spec else None
                    ),
                )
            except KeyError as exc:
                raise ConfigError(f"{w}: missing {exc}") from exc
            except (ConfigError, TypeError, ValueError) as exc:
                raise ConfigError(f"{w}: {exc}") from exc
    try:
        return LatencyModel(
            flows=flows,
            pdr_ssms=json_number(doc.get("pdr_ssms", 0.9953)),
            pdr_info=json_number(doc.get("pdr_info", 1.0)),
        )
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(
    doc: dict, base_dir: str = ".", source: str = "<scenario>"
) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")

    if "network" in doc:
        net = network_from_dict(doc["network"], source=f"{source}: network")
    else:
        rel = _require(doc, "network_file", source)
        net = load_network(os.path.join(base_dir, rel))

    sim_doc = _typed(_require(doc, "sim", source), dict, f"{source}: sim")
    try:
        sim = SimParams(
            dt_s=json_number(sim_doc["dt_s"]),
            t_sim_s=json_number(sim_doc["t_sim_s"]),
            seed=json_int(sim_doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: sim block needs dt_s and t_sim_s ({exc})") from exc
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    tr_doc = _typed(_require(doc, "traffic", source), dict, f"{source}: traffic")
    spawn_doc = _typed(tr_doc.get("spawn", {}), dict, f"{source}: traffic.spawn")
    try:
        traffic = TrafficParams(
            n_vel=json_int(tr_doc["n_vel"]),
            p_user=json_number(tr_doc["p_user"]),
            spawn_window_frac=json_number(spawn_doc.get("window_frac", 0.8)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: traffic block needs n_vel and p_user ({exc})") from exc
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    if "events" in doc and "events_random" in doc:
        raise ConfigError(f"{source}: give events or events_random, not both")
    events: tuple[EventSpec, ...] = ()
    events_random = None
    if "events" in doc:
        items = _typed(doc["events"], list, f"{source}: events")
        if len(items) > MAX_EVENTS:
            raise ConfigError(
                f"{source}: {len(items)} events, more than {MAX_EVENTS}")
        events = tuple(_parse_event(item, k, net, source)
                       for k, item in enumerate(items))
    elif "events_random" in doc:
        er = _typed(doc["events_random"], dict, f"{source}: events_random")
        try:
            events_random = RandomEvents(
                count=json_int(er["count"]),
                kinds=tuple(er.get("kinds", EVENT_KINDS)),
                onset_min_s=(
                    json_number(er["onset_min_s"]) if "onset_min_s" in er else None
                ),
                onset_max_s=(
                    json_number(er["onset_max_s"]) if "onset_max_s" in er else None
                ),
                duration_s=(
                    json_number(er["duration_s"])
                    if er.get("duration_s") is not None else None
                ),
                density=json_number(er.get("density", DEFAULT_GATHERING_DENSITY)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: events_random needs count ({exc})") from exc
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from exc

    sensing = _typed(doc.get("sensing", {}), dict, f"{source}: sensing")
    rsu_docs = _typed(sensing.get("rsus", []), list, f"{source}: sensing.rsus")
    rsus = []
    for k, item in enumerate(rsu_docs):
        w = f"{source}: sensing.rsus[{k}]"
        try:
            rsu = RsuSpec(node=json_int(item["node"]),
                          radius_m=json_number(item["radius_m"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{w}: expected {{node, radius_m}} ({exc})") from exc
        if rsu.node not in net.node_by_id:
            raise ConfigError(f"{w}: unknown node {rsu.node}")
        if rsu.radius_m <= 0:
            raise ConfigError(f"{w}: radius_m must be > 0")
        rsus.append(rsu)

    th_doc = _typed(doc.get("thresholds", {}), dict, f"{source}: thresholds")
    try:
        thresholds = EventThresholds(
            density_threshold=json_number(th_doc.get("density_threshold", 0.5)),
            speed_threshold=json_number(th_doc.get("speed_threshold", 0.5)),
            accident_window_s=json_number(th_doc.get("accident_window_s", 10.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: bad thresholds block ({exc})") from exc

    latency = _parse_latency(doc.get("latency", {}), source)

    return Scenario(
        network=net,
        sim=sim,
        traffic=traffic,
        events=events,
        events_random=events_random,
        rsus=tuple(rsus),
        thresholds=thresholds,
        latency=latency,
        source_path=source,
    )


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"),
                              base_dir=os.path.dirname(path) or ".", source=path)
