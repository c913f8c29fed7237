"""Cloud-side traffic twin: last-known link volumes, pedestrian densities, and
the event sets produced by threshold detection on incoming sensor readings.

The twin only ever sees what its sources deliver: what a source covers and
whether its packet arrives are decided before the twin is called
(`Scenario.rsu_coverage`, `comms.deliver`). Undelivered readings leave the
previous (stale) values in place; links never observed report a volume of 0,
and nodes never observed a density of NaN.
Speed-threshold comparisons happen as readings arrive (the state tracks, per
link, when the current uninterrupted slow-and-occupied run started), so a
TwinState is bound to the thresholds it was created with; the detectors read
them from the state and take none of their own.

The twin has one entry, `TwinState.ingest_arrays`, which takes columns of
link indices and node ids with their readings and trusts them: the engine
passes its own truth, and the route service first checks each reading it was
sent (`ServiceState.apply_sensor_update`). Event sets, `detect_accident`'s
result and `clear_resolved_events`'s clearable links are link indices; pairs
appear only in `snapshot_dict` and `event_link_pairs`. The engine and the
route service run one cloud loop on the twin: `ingest_arrays`, `detect`,
`masked_journey_times` into `nav.PlannerState.update`, then the search.

Detection costs what was written, not the size of the network. The state
keeps the node ids written since the last detection (`pending_nodes`), and
`detect_pedestrian_gathering` judges only those. Each slow run that a reading
opens is pushed onto a heap of (run start, link index) (`run_heap`);
`detect_accident` pops the runs whose window has passed and flags those whose
`low_speed_since` still equals the popped start (an entry of a run broken
since is dropped). Each detector returns what that call flagged, and merges
it into the state's event set. This equals a full scan of every node and link
because a flag clears only once its element's latest reading fails its test:
an element not written since the last detection cannot turn flaggable. A
heap larger than twice the link count, which readings that break and reopen
runs without advancing the clock can cause, is rebuilt from the live runs.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .nav import masked_journey_times
from .network import TrafficNetwork


@dataclass(frozen=True)
class EventThresholds:
    density_threshold: float = 0.5  # persons/m^2, exceedance is strict (>)
    speed_threshold: float = 0.5  # m/s, slow means strictly below (<)
    accident_window_s: float = 10.0

    def __post_init__(self):
        if self.density_threshold <= 0:
            raise ContractError("density_threshold must be > 0")
        if self.speed_threshold <= 0:
            raise ContractError("speed_threshold must be > 0")
        if self.accident_window_s <= 0:
            raise ContractError("accident_window_s must be > 0")


class TwinState:
    def __init__(self, net: TrafficNetwork, thresholds: EventThresholds):
        self.net = net
        self.thresholds = thresholds
        self.link_volume = np.zeros(net.link_count)
        self.node_density = np.full(net.node_count + 1, np.nan)  # nan: never observed
        # Start time of the current uninterrupted slow+occupied run, else nan.
        self.low_speed_since = np.full(net.link_count, np.nan)
        self.event_nodes: set[int] = set()
        self.event_links: set[int] = set()  # link indices
        self.last_update: dict[tuple[str, int], float] = {}
        # Node-id arrays written since the last gathering detection.
        self.pending_nodes: list[np.ndarray] = []
        # (run start, link index) of each slow run opened and not yet due, plus
        # entries of runs broken since; every live unflagged run has one.
        self.run_heap: list[tuple[float, int]] = []

    def event_link_pairs(self) -> set[tuple[int, int]]:
        pairs = self.net.pairs
        return {pairs[i] for i in self.event_links}

    def volumes(self) -> np.ndarray:
        """Last-known vehicle count per link, in link order."""
        return self.link_volume.copy()

    def ingest_arrays(
        self,
        sources: tuple[str, list[int]],
        link_idx: np.ndarray,
        volumes: np.ndarray,
        speeds: np.ndarray,
        occupied: np.ndarray,
        node_idx: np.ndarray,
        densities: np.ndarray,
        now: float,
    ) -> None:
        """Vectorized ingest of an already-delivered observation.

        `sources` is (kind, [id, ...]): one or more same-kind sources whose
        readings are concatenated; each source's last update is stamped `now`.
        A link listed more than once must carry equal readings each time; the
        batch then leaves the state that one call per source would."""
        if link_idx.size:
            self.link_volume[link_idx] = volumes
            low = occupied & (speeds < self.thresholds.speed_threshold)
            run = self.low_speed_since[link_idx]
            run[~low] = np.nan
            opened = low & np.isnan(run)
            run[opened] = now
            self.low_speed_since[link_idx] = run
            if opened.any():
                self._push_runs(link_idx[opened], now)
        if node_idx.size:
            self.node_density[node_idx] = densities
            self.pending_nodes.append(node_idx)
        kind, source_ids = sources
        for sid in source_ids:
            self.last_update[(kind, sid)] = now

    def detect(self, now: float, clearable_nodes: Iterable[int],
               clearable_links: Iterable[int]) -> None:
        """One detection pass: gatherings, then accidents due at `now`, then clearing."""
        detect_pedestrian_gathering(self)
        detect_accident(self, now)
        clear_resolved_events(self, clearable_nodes, clearable_links)

    def masked_journey_times(self) -> np.ndarray:
        """The planner's input: masked journey times of the last-known volumes."""
        return masked_journey_times(self.net, self.link_volume, self.event_nodes,
                                    self.event_links)

    def _push_runs(self, links: np.ndarray, start: float) -> None:
        heap = self.run_heap
        for i in set(links.tolist()):
            heapq.heappush(heap, (start, i))
        if len(heap) > 2 * self.net.link_count:
            live = np.flatnonzero(~np.isnan(self.low_speed_since))
            heap[:] = zip(self.low_speed_since[live].tolist(), live.tolist())
            heapq.heapify(heap)

    def snapshot_dict(self) -> dict:
        """Compact JSON-ready view (nonzero volumes, observed densities)."""
        pairs = self.net.pairs
        vols = {
            f"{pairs[i][0]}-{pairs[i][1]}": self.link_volume[i]
            for i in np.nonzero(self.link_volume)[0]
        }
        dens = {
            str(n): float(self.node_density[n])
            for n in np.flatnonzero(~np.isnan(self.node_density))
        }
        return {
            "volumes": vols,
            "densities": dens,
            "event_nodes": sorted(self.event_nodes),
            "event_links": sorted(self.event_link_pairs()),
        }


def detect_pedestrian_gathering(state: TwinState) -> set[int]:
    """Nodes written since the last call whose density strictly exceeds the
    state's density threshold; merged into the state's event-node set."""
    pending = state.pending_nodes
    if not pending:
        return set()
    nodes = pending[0] if len(pending) == 1 else np.concatenate(pending)
    pending.clear()
    hit = nodes[state.node_density[nodes] > state.thresholds.density_threshold]
    flagged = set(hit.tolist())
    state.event_nodes |= flagged
    return flagged


def detect_accident(state: TwinState, now: float) -> set[int]:
    """Indices of the links whose current slow run, delivered readings that
    stayed slow and occupied, reached the state's whole accident window by
    `now` and came off the run heap in this call; merged into the state's
    event-link set. Speeds are judged per reading at ingest time, so only the
    window length applies here. The twin keeps speed evidence per link, so an
    accident at an intersection surfaces through its approach links.
    """
    heap = state.run_heap
    run = state.low_speed_since
    window = state.thresholds.accident_window_s
    flagged: set[int] = set()
    # now - start falls as start rises, so the due runs are a prefix of the
    # heap order.
    while heap and now - heap[0][0] >= window:
        start, i = heapq.heappop(heap)
        if run[i] == start:  # else the run broke after this entry was pushed
            flagged.add(i)
    state.event_links |= flagged
    return flagged


def clear_resolved_events(
    state: TwinState,
    clearable_nodes: Iterable[int],
    clearable_links: Iterable[int],
) -> None:
    """Drop flagged elements that are eligible to clear (their scheduled cause
    has ended) and whose latest delivered observation no longer meets the
    state's detection criterion. Stale evidence keeps an element flagged.
    `clearable_links` holds link indices."""
    for n in state.event_nodes.intersection(clearable_nodes):
        if state.node_density[n] <= state.thresholds.density_threshold:
            state.event_nodes.discard(n)
    for i in state.event_links.intersection(clearable_links):
        if math.isnan(state.low_speed_since[i]):
            state.event_links.discard(i)
