"""Road network model: directed links and the density/speed/journey-time laws.

Node ids are dense integers 1..M; links are indexed 0..L-1 in file order, and
per-link quantities (lengths, volumes, speeds, journey times) are arrays in
that order. The speed-density law has one implementation, `_speed_law`,
elementwise on arrays; `link_speeds` and the scalar `journey_speed` call it.
Likewise the journey-time law, `_journey_time_law`, serves `link_journey_times`
and the scalar `journey_time`.
The planner reads per-node rows (`TrafficNetwork.link_rows`): rows[u][v] is
the value of link u->v, one small mapping per node keyed by its out-neighbors,
so the rows are the graph and planning costs O(L) per snapshot instead of
O(M^2).
A network never changes, so `static_route` caches what only its topology and
lengths decide, each filled on first use: the rows of link lengths and, per
origin, the predecessor array of its shortest-distance tree, which also
answers which nodes an origin reaches. Scenarios derived from one another
share their network, and so these caches.
A network has at most MAX_NODES nodes and MAX_LINKS links. A link is at most
MAX_LENGTH_M long, its free-flow speed at most MAX_V_FREE_MPS, and its
capacity k_max_veh_per_m * length_m from 1 to scenario.MAX_VEHICLES. Node
coordinates are at most MAX_COORD_M in absolute value.
Node ids and link endpoints in network JSON must be JSON integers, and
coordinates, lengths, speeds and jam densities finite JSON numbers (an integer
or a float; not a boolean or a string).
Journey times are in seconds, +inf when a link is jammed or closed.
`build_journey_matrix` keeps the dense (M+1, M+1) form, indexed by node id
with +inf wherever no traversable link exists, as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DegenerateRouteRequest, json_field, \
    json_int, json_number, read_json

INF = math.inf
# A vehicle this close to a link's end counts as at the end. Every link must be
# longer, so that a vehicle that has just entered a link is never at its end.
END_TOLERANCE_M = 1e-9

# Caps on the size of a network, checked before its items are parsed. Each
# origin a run draws caches a predecessor list of node_count entries, so the
# static-route cache can reach MAX_NODES**2 entries; every step does numpy
# work per link.
MAX_NODES = 10_000
MAX_LINKS = 100_000

# Upper ranges of a link's length and free-flow speed, far above any
# committed network's (~141 m and ~15 m/s at most).
MAX_LENGTH_M = 1e6
MAX_V_FREE_MPS = 1e3
# Range of a node's |x_m| and |y_m| (400 m at most in committed networks).
MAX_COORD_M = 1e7

# Links whose journey speed falls at or below this floor behave as closed:
# avoids division by ~0 and makes jammed links look like +inf to the planner.
SPEED_FLOOR_MPS = 1e-6


@dataclass(frozen=True)
class Node:
    node_id: int
    x_m: float
    y_m: float


@dataclass(frozen=True)
class Link:
    from_node: int
    to_node: int
    length_m: float
    v_free_mps: float
    k_max_veh_per_m: float

    @property
    def pair(self) -> tuple[int, int]:
        return (self.from_node, self.to_node)


class TrafficNetwork:
    """Immutable directed road graph with per-link arrays for vectorized math."""

    def __init__(self, nodes: list[Node], links: list[Link]):
        _validate_topology(nodes, links)
        self.nodes = list(nodes)
        self.links = list(links)
        self.node_count = len(nodes)
        self.link_count = len(links)
        self.node_by_id = {n.node_id: n for n in nodes}

        self.lengths = np.array([l.length_m for l in links], dtype=float)
        self.v_free = np.array([l.v_free_mps for l in links], dtype=float)
        self.k_max = np.array([l.k_max_veh_per_m for l in links], dtype=float)
        self.from_ids = np.array([l.from_node for l in links], dtype=int)
        self.to_ids = np.array([l.to_node for l in links], dtype=int)

        self.link_index: dict[tuple[int, int], int] = {
            l.pair: i for i, l in enumerate(links)
        }
        self.pairs = list(self.link_index)  # link order; pairs are unique
        self.in_links: list[list[int]] = [[] for _ in range(self.node_count + 1)]
        for i, l in enumerate(links):
            self.in_links[l.to_node].append(i)
        self._length_rows: list[dict[int, float]] | None = None
        self._static_preds: dict[int, list[int]] = {}

    def link_rows(self, values: np.ndarray) -> list[dict[int, float]]:
        """Per-node rows of a link-indexed vector: rows[u][v] = values[i] for
        link i = u->v, in a list indexed by node id (entry 0 unused). The keys
        of rows[u] are exactly u's out-neighbors, so the planner needs no
        other adjacency."""
        rows: list[dict[int, float]] = [{} for _ in range(self.node_count + 1)]
        for (u, v), x in zip(self.pairs, values.tolist()):
            rows[u][v] = x
        return rows

    def static_route(self, origin: int, dest: int) -> list[int] | None:
        """Node sequence origin..dest of least total length, None when dest is
        unreachable; ties break like the journey-time planner. Each origin's
        shortest-distance tree is searched once and its predecessors cached.
        Raises like `nav.dijkstra_fastest` on equal or out-of-range ids."""
        from . import nav  # nav imports this module

        if origin == dest:
            raise DegenerateRouteRequest(f"start and destination are both {origin}")
        if not (1 <= origin <= self.node_count and 1 <= dest <= self.node_count):
            raise ContractError(f"node ids must be in 1..{self.node_count}")
        pred = self._static_preds.get(origin)
        if pred is None:
            if self._length_rows is None:
                self._length_rows = self.link_rows(self.lengths)
            _, pred = nav.shortest_path_tree(self._length_rows, origin)
            self._static_preds[origin] = pred
        if not pred[dest]:  # node ids start at 1: no predecessor, no path
            return None
        return nav.tree_path(pred, origin, dest)

    def link_between(self, from_node: int, to_node: int) -> Link | None:
        idx = self.link_index.get((from_node, to_node))
        return self.links[idx] if idx is not None else None

    def node_distance_m(self, a: int, b: int) -> float:
        na, nb = self.node_by_id[a], self.node_by_id[b]
        return math.hypot(na.x_m - nb.x_m, na.y_m - nb.y_m)


def _validate_topology(nodes: list[Node], links: list[Link]) -> None:
    from .scenario import MAX_VEHICLES  # scenario imports this module

    if not nodes:
        raise ConfigError("network has no nodes")
    ids = sorted(n.node_id for n in nodes)
    if ids != list(range(1, len(nodes) + 1)):
        raise ConfigError(
            f"node ids must be dense 1..{len(nodes)}, got {ids[:5]}..."
            if len(ids) > 5
            else f"node ids must be dense 1..{len(nodes)}, got {ids}"
        )
    for n in nodes:
        if not (abs(n.x_m) <= MAX_COORD_M and abs(n.y_m) <= MAX_COORD_M):
            raise ConfigError(f"node {n.node_id}: x_m and y_m must be within "
                              f"[-{MAX_COORD_M:g}, {MAX_COORD_M:g}]")
    id_set = set(ids)
    seen_pairs: set[tuple[int, int]] = set()
    for k, l in enumerate(links):
        where = f"links[{k}] ({l.from_node}->{l.to_node})"
        if l.from_node not in id_set or l.to_node not in id_set:
            raise ConfigError(f"{where}: endpoint not a known node id")
        if l.from_node == l.to_node:
            raise ConfigError(f"{where}: self-links are not allowed")
        if l.pair in seen_pairs:
            raise ConfigError(f"{where}: duplicate link for this ordered pair")
        seen_pairs.add(l.pair)
        # Comparisons are False for NaN: one test per value rejects NaN,
        # infinite, non-positive and too large numbers.
        if not END_TOLERANCE_M < l.length_m <= MAX_LENGTH_M:
            raise ConfigError(f"{where}: length_m must be within "
                              f"({END_TOLERANCE_M}, {MAX_LENGTH_M:g}]")
        if not 0 < l.v_free_mps <= MAX_V_FREE_MPS:
            raise ConfigError(f"{where}: free-flow speed must be within "
                              f"(0, {MAX_V_FREE_MPS:g}] m/s")
        # length_m > 0 here, so this rejects k_max <= 0 and NaN too. A
        # capacity past the vehicle cap gates nothing, or overflows to +inf;
        # one below a vehicle admits none, and a near-zero one overflows the
        # speed law's volume / capacity.
        if not 1 <= l.k_max_veh_per_m * l.length_m <= MAX_VEHICLES:
            raise ConfigError(f"{where}: the capacity k_max_veh_per_m * length_m "
                              f"must be within [1, {MAX_VEHICLES}] vehicles")


def traffic_density(volume: float, length_m: float) -> float:
    """Vehicles per meter on a link carrying `volume` vehicles."""
    if length_m <= 0:
        raise ContractError(f"link length must be > 0, got {length_m}")
    return volume / length_m


def _speed_law(density, v_free_mps, k_max):
    """Greenshields' linear density-speed law, clamped at 0 beyond jam
    density; elementwise on arrays. NaN density reads as speed 0."""
    return np.fmax(0.0, v_free_mps * (1.0 - density / k_max))


def journey_speed(density: float, v_free_mps: float, k_max: float) -> float:
    """Linear density-speed law, clamped at 0 beyond jam density."""
    return float(_speed_law(density, v_free_mps, k_max))


def link_speeds(net: TrafficNetwork, counts: np.ndarray) -> np.ndarray:
    """Speed of every link carrying `counts` vehicles (one per link)."""
    return _speed_law(counts / net.lengths, net.v_free, net.k_max)


def _journey_time_law(length_m, speed):
    """Seconds to traverse `length_m` at `speed`, +inf where the speed is at
    or below SPEED_FLOOR_MPS; elementwise on arrays."""
    speed = np.asarray(speed, dtype=float)
    return np.divide(length_m, speed, out=np.full(speed.shape, INF),
                     where=speed > SPEED_FLOOR_MPS)


def journey_time(link: Link, volume: float) -> float:
    """Seconds to traverse `link` at the speed implied by `volume`, +inf if jammed."""
    v = journey_speed(traffic_density(volume, link.length_m), link.v_free_mps,
                      link.k_max_veh_per_m)
    return float(_journey_time_law(link.length_m, v))


def link_journey_times(net: TrafficNetwork, volumes: np.ndarray) -> np.ndarray:
    """Seconds to traverse every link under `volumes` (one count per link),
    +inf where the speed is at or below SPEED_FLOOR_MPS. A fresh array."""
    return _journey_time_law(net.lengths, link_speeds(net, volumes))


def build_journey_matrix(net: TrafficNetwork, volumes) -> np.ndarray:
    """Journey-time matrix indexed by node id; +inf where no traversable link.

    `volumes` holds one vehicle count per link, ordered like `net.links`.
    """
    vols = np.asarray(volumes, dtype=float)
    if vols.shape != (net.link_count,):
        raise ConfigError(
            f"volumes must have one entry per link "
            f"({net.link_count}), got shape {vols.shape}"
        )
    m = net.node_count
    mat = np.full((m + 1, m + 1), INF)
    mat[net.from_ids, net.to_ids] = link_journey_times(net, vols)
    return mat


def network_from_dict(doc: dict, source: str = "network") -> TrafficNetwork:
    raw_nodes = json_field(doc, "nodes", list, source)
    raw_links = json_field(doc, "links", list, source)
    if not raw_nodes:
        raise ConfigError(f"{source}: nodes: expected a non-empty array")
    for what, items, cap in (("nodes", raw_nodes, MAX_NODES),
                             ("links", raw_links, MAX_LINKS)):
        if len(items) > cap:
            raise ConfigError(
                f"{source}: {len(items)} {what}, more than {cap}")

    nodes = []
    for k, item in enumerate(raw_nodes):
        where = f"{source}: nodes[{k}]"
        try:
            nodes.append(
                Node(
                    node_id=json_int(item["id"]),
                    x_m=json_number(item["x_m"]),
                    y_m=json_number(item["y_m"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: expected {{id, x_m, y_m}} ({exc})") from exc

    links = []
    for k, item in enumerate(raw_links):
        where = f"{source}: links[{k}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: expected an object")
        if "v_free_mps" in item and "v_free_kmh" in item:
            raise ConfigError(f"{where}: give v_free_mps or v_free_kmh, not both")
        try:
            if "v_free_kmh" in item:
                v_free = json_number(item["v_free_kmh"]) / 3.6
            else:
                v_free = json_number(item["v_free_mps"])
            links.append(
                Link(
                    from_node=json_int(item["from"]),
                    to_node=json_int(item["to"]),
                    length_m=json_number(item["length_m"]),
                    v_free_mps=v_free,
                    k_max_veh_per_m=json_number(item["k_max_veh_per_m"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{where}: expected {{from, to, length_m, v_free_mps|v_free_kmh, "
                f"k_max_veh_per_m}} ({exc})"
            ) from exc

    try:
        return TrafficNetwork(nodes, links)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_network(path: str) -> TrafficNetwork:
    return network_from_dict(read_json(path, "network"), source=path)
