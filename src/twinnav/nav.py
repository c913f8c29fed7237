"""Event-triggered cooperative route planning over journey-time rows.

The planner searches per-node rows: `rows[u]` maps each out-neighbor v of
node u to the journey time of link u->v, so the rows are the graph.
`net.link_rows` builds them from one link-indexed journey-time vector
(`masked_journey_times`), one small mapping per node. The dense (M+1, M+1)
matrices of `build_journey_matrix` and `mask_events` index the same way and
remain the reference the tests compare against; the planner's entry points
turn one into rows with an entry for every node id (`_as_rows`).

Planning always happens on rows that already have event closures masked in:
links into flagged nodes and flagged links are +inf, so returned routes
cannot enter a flagged node (they may depart from one) or use a flagged link.

A `PlannerState` carries the planner from one plan to the next, for the
engine and for the route service. Each plan hands it that plan's masked
journey times. It keeps the rows and patches into them only the links whose
time changed since they were last read, keeps the set of +inf links, and
keeps a memo of the (origin, destination) pairs whose search found no path.
The search alone decides that no chain of finite links joins a pair: a finite
masked journey time is below MAX_LENGTH_M / SPEED_FLOOR_MPS = 1e12 s and a
path has fewer than MAX_NODES = 1e4 links, so no sum reaches float range.
Reachability depends on the +inf link set alone, so the memo is
cleared exactly when that set changes, and until then `plan_new_users` and
`replan_affected` answer a remembered pair unreachable without a search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush, heappop
from typing import Mapping

import numpy as np

from .errors import ContractError, DegenerateRouteRequest
from .network import TrafficNetwork, link_journey_times

INF = math.inf

# Route-request geometry/time coefficient: 1/(2 * 3.048 m/s^2), the ITE
# comfortable-deceleration bound of 10 ft/s^2, rounded to three digits.
# Request distance is COEF * v^2 meters; the matching service deadline for a
# vehicle approaching at v is COEF * v seconds.
REQUEST_COEF = 0.164


@dataclass
class Route:
    """Planned node sequence for one vehicle; cursor indexes the next node to
    reach (so the vehicle is traversing nodes[cursor-1] -> nodes[cursor])."""

    nodes: list[int]
    cursor: int = 1

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ContractError("a route needs at least two nodes")
        if not 1 <= self.cursor < len(self.nodes):
            raise ContractError(
                f"cursor {self.cursor} out of range for {len(self.nodes)} nodes"
            )

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @property
    def next_node(self) -> int:
        return self.nodes[self.cursor]

    def remaining_links(self) -> list[tuple[int, int]]:
        """Links still ahead of the next decision point (the current link's
        downstream node); the link being traversed cannot be abandoned."""
        return list(zip(self.nodes[self.cursor:], self.nodes[self.cursor + 1:]))


@dataclass(frozen=True)
class PathResult:
    nodes: tuple[int, ...]
    cost: float


@dataclass
class PlanningInput:
    """Snapshot handed to the planner: event-masked journey-time rows, the
    users waiting for an initial route and the pairs known to have no path."""

    matrix: object  # rows[u][v], id-indexed: net.link_rows() or a dense matrix
    new_users: dict = field(default_factory=dict)  # vid -> (position, destination)
    # (start, destination) pairs known to have no path on `matrix`; a search
    # that finds none adds its pair, sound while sums of finite links stay in
    # float range (masked journey times: see the module docstring). A fresh
    # set forgets nothing between calls.
    no_path: set = field(default_factory=set)


@dataclass
class PlanOutcome:
    routes: dict = field(default_factory=dict)  # vid -> Route
    unreachable: set = field(default_factory=set)


def _as_rows(matrix):
    """Rows for the search: a dense (M+1, M+1) matrix becomes one mapping per
    node id with an entry for every node id 1..M, +inf entries kept; rows
    pass through unchanged."""
    if not isinstance(matrix, np.ndarray):
        return matrix
    ids = range(1, len(matrix))
    return [{}] + [dict(zip(ids, row[1:])) for row in matrix[1:].tolist()]


def _search(rows, start: int, target: int | None = None):
    """Dijkstra from `start` over rows[u][v], stopping once `target` is
    settled (never when it is None). Returns (dist, pred) indexed by node id.
    The frontier pops by (cost, node id) and equal-cost predecessors prefer
    the lower node id, so the order of a row's keys changes neither."""
    n_ids = len(rows) - 1
    dist = [INF] * (n_ids + 1)
    pred = [0] * (n_ids + 1)
    done = [False] * (n_ids + 1)
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == target:
            break
        row = rows[u]
        for v in row:
            if done[v]:
                continue
            w = row[v]
            if w == INF:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
            elif nd == dist[v] and u < pred[v]:
                pred[v] = u
    return dist, pred


def check_endpoints(n_ids: int, start: int, end: int) -> None:
    """The endpoint contract of every route search over node ids 1..n_ids: equal
    ids raise DegenerateRouteRequest, then an id out of range ContractError."""
    if start == end:
        raise DegenerateRouteRequest(f"start and destination are both {start}")
    if not (1 <= start <= n_ids and 1 <= end <= n_ids):
        raise ContractError(f"node ids must be in 1..{n_ids}")


def dijkstra_fastest(matrix, start: int, end: int) -> PathResult | None:
    """Minimum-total-weight node sequence from start to end, or None when every
    path is +inf. Ties break deterministically: the frontier pops by
    (cost, node id) and equal-cost predecessors prefer the lower node id.
    `matrix` is per-node rows or a dense matrix indexed by node id.
    """
    check_endpoints(len(matrix) - 1, start, end)
    dist, pred = _search(_as_rows(matrix), start, end)
    if dist[end] == INF:
        return None
    return PathResult(nodes=tuple(tree_path(pred, start, end)), cost=dist[end])


def fastest_unless_cut_off(rows, start: int, end: int, no_path: set):
    """dijkstra_fastest on rows, but None at once for a pair in `no_path`;
    a pair the search finds no path for joins `no_path`. A degenerate or
    out-of-range pair raises in the search, so it never joins the memo."""
    if (start, end) in no_path:
        return None
    found = dijkstra_fastest(rows, start, end)
    if found is None:
        no_path.add((start, end))
    return found


def shortest_path_tree(matrix, origin: int) -> tuple[list[float], list[int]]:
    """Single-source distances and predecessors, same tie-breaking as
    dijkstra_fastest; useful for caching routes from a common origin."""
    return _search(_as_rows(matrix), origin)


def tree_path(pred: list[int], origin: int, dest: int) -> list[int]:
    """Node sequence origin..dest out of a predecessor array."""
    path = [dest]
    while path[-1] != origin:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def masked_journey_times(
    net: TrafficNetwork,
    volumes: np.ndarray,
    event_nodes: set[int],
    event_links: set[int],
) -> np.ndarray:
    """Event-masked journey time of every link under `volumes` (one count per
    link): +inf when the link is jammed, flagged (`event_links` holds link
    indices) or leads into a flagged node. A fresh array."""
    times = link_journey_times(net, volumes)
    times[list(event_links)] = INF
    for n in event_nodes:
        times[net.in_links[n]] = INF
    return times


def mask_events(
    matrix: np.ndarray,
    event_nodes: set[int],
    event_links: set[tuple[int, int]],
) -> np.ndarray:
    """Copy of the matrix with every link into a flagged node and every flagged
    link set to +inf. Idempotent."""
    masked = np.array(matrix, dtype=float, copy=True)
    if event_nodes:
        masked[:, sorted(event_nodes)] = INF
    for i, j in event_links:
        masked[i, j] = INF
    return masked


def _plan_pairs(rows, no_path: set, pairs: dict) -> PlanOutcome:
    """One search per `vid -> (start, destination)` in `pairs`, in vid
    order: the fastest route, or the vid flagged unreachable."""
    out = PlanOutcome()
    for vid in sorted(pairs):
        start, destination = pairs[vid]
        found = fastest_unless_cut_off(rows, start, destination, no_path)
        if found is None:
            out.unreachable.add(vid)
        else:
            out.routes[vid] = Route(nodes=list(found.nodes))
    return out


def plan_new_users(inp: PlanningInput) -> PlanOutcome:
    """Initial fastest routes for entering users; users with no finite path are
    flagged unreachable and left unrouted."""
    return _plan_pairs(_as_rows(inp.matrix), inp.no_path, inp.new_users)


def replan_affected(
    inp: PlanningInput, routes: Mapping[int | str, Route]
) -> PlanOutcome:
    """Re-plan exactly the users whose remaining route crosses a masked entry.

    The new route starts at the current link's downstream node (decisions take
    effect at the next intersection). Users whose destination became
    unreachable are flagged and keep their old route; a user whose only
    remaining link is the committed final one is not re-planned.
    """
    rows = _as_rows(inp.matrix)
    return _plan_pairs(rows, inp.no_path, {
        vid: (r.next_node, r.destination) for vid, r in routes.items()
        if r.next_node != r.destination
        and any(rows[a][b] == INF for a, b in r.remaining_links())})


class PlannerState:
    """The planner carried across plans on one network. `update` takes each
    plan's masked journey times; `rows` are those times as journey rows,
    patched on demand where a link's time changed since they were last read
    and built in full only on first use. `blocked` is the set of +inf link
    pairs and `no_path` the memo of pairs whose search found no path (so no
    chain of finite links joins them, by the module docstring's bound),
    cleared whenever `blocked` changes."""

    def __init__(self, net: TrafficNetwork):
        self.net = net
        self.times: np.ndarray | None = None  # the last update's times
        self.blocked: set[tuple[int, int]] = set()
        self.no_path: set[tuple[int, int]] = set()
        self._inf = np.zeros(net.link_count, dtype=bool)
        self._rows: list[dict[int, float]] | None = None
        self._rows_times: np.ndarray | None = None  # what the rows hold

    def update(self, times: np.ndarray) -> bool:
        """Take this plan's masked journey times (a fresh array the caller
        no longer writes). Returns whether the +inf link set changed, in
        which case `blocked` is rebuilt and the memo cleared."""
        self.times = times
        inf = np.isinf(times)
        if np.array_equal(inf, self._inf):
            return False
        self._inf = inf
        pairs = self.net.pairs
        self.blocked = {pairs[i] for i in np.flatnonzero(inf).tolist()}
        self.no_path.clear()
        return True

    def rows(self) -> list[dict[int, float]]:
        """Rows of the last update's times: equal to
        `net.link_rows(self.times)`, kept in one object across plans."""
        times = self.times
        if self._rows is None:
            self._rows = self.net.link_rows(times)
        else:
            changed = np.flatnonzero(times != self._rows_times)
            pairs = self.net.pairs
            rows = self._rows
            for i, x in zip(changed.tolist(), times[changed].tolist()):
                u, v = pairs[i]
                rows[u][v] = x
        self._rows_times = times
        return self._rows


def spliced_route(old: Route, replanned: Route) -> Route:
    """Merge a re-plan into the traveled prefix: history up to the current link
    stays, the future follows the new plan from the downstream node."""
    if replanned.nodes[0] != old.next_node:
        raise ContractError(
            f"replanned route starts at {replanned.nodes[0]}, "
            f"expected {old.next_node}"
        )
    nodes = old.nodes[: old.cursor] + list(replanned.nodes)
    return Route(nodes=nodes, cursor=old.cursor)


def request_distance(v_free_mps: float) -> float:
    """Distance before an intersection at which a vehicle must request its
    route, in meters: the comfortable-braking distance from v_free."""
    if v_free_mps < 0:
        raise ContractError("speed must be non-negative")
    return REQUEST_COEF * v_free_mps * v_free_mps
