"""Cloud-side traffic twin: last-known link volumes, pedestrian densities, and
the event sets produced by threshold detection on incoming sensor readings.

The twin only ever sees what its sources deliver: what a source covers and
whether its packet arrives are decided before the twin is called
(`Scenario.rsu_coverage`, `comms.deliver`). Undelivered readings leave the
previous (stale) values in place; links never observed report a volume of 0.
Speed-threshold comparisons happen as readings arrive (the state tracks, per
link, when the current uninterrupted slow-and-occupied run started), so a
TwinState is bound to the thresholds it was created with; the detectors read
them from the state and take none of their own.

The twin is entered two ways: the engine, whose readings are its own truth,
calls `TwinState.ingest_arrays` with link indices and node ids; the route
service calls `ingest_readings`, which validates every reading keyed by
(from, to) pair and node id, keeps the last of a repeated key and then makes
one `ingest_arrays` call. Event sets, `detect_accident`'s result and
`clear_resolved_events`'s clearable links are link indices; pairs appear only
in `snapshot_dict` and `event_link_pairs`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .network import TrafficNetwork

INF = math.inf


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
        self.node_density = np.zeros(net.node_count + 1)
        self.node_observed = np.zeros(net.node_count + 1, dtype=bool)
        # Start time of the current uninterrupted slow+occupied run, else nan.
        self.low_speed_since = np.full(net.link_count, np.nan)
        self.event_nodes: set[int] = set()
        self.event_links: set[int] = set()  # link indices
        self.last_update: dict[tuple[str, int], float] = {}

    def event_link_pairs(self) -> set[tuple[int, int]]:
        links = self.net.links
        return {links[i].pair for i in self.event_links}

    def volumes(self) -> np.ndarray:
        """Last-known vehicle count per link, ordered like net.links."""
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
            run[low & np.isnan(run)] = now
            self.low_speed_since[link_idx] = run
        if node_idx.size:
            self.node_density[node_idx] = densities
            self.node_observed[node_idx] = True
        kind, source_ids = sources
        for sid in source_ids:
            self.last_update[(kind, sid)] = now

    def snapshot_dict(self) -> dict:
        """Compact JSON-ready view (nonzero volumes, observed densities)."""
        links = self.net.links
        vols = {
            f"{links[i].from_node}-{links[i].to_node}": self.link_volume[i]
            for i in np.nonzero(self.link_volume)[0]
        }
        dens = {
            str(n): float(self.node_density[n])
            for n in np.nonzero(self.node_observed)[0]
        }
        return {
            "volumes": vols,
            "densities": dens,
            "event_nodes": sorted(self.event_nodes),
            "event_links": sorted(self.event_link_pairs()),
        }


def ingest_readings(
    state: TwinState,
    sources: tuple[str, list[int]],
    links: Iterable[tuple[tuple[int, int], tuple[float, float, bool]]],
    nodes: Iterable[tuple[int, float]],
    now: float,
) -> list[int]:
    """Validate delivered readings, then apply them in one `ingest_arrays` call.
    `links` holds ((from, to), (volume, speed_mps, occupied)) and `nodes`
    (node id, density) in arrival order; a repeated link or node keeps its
    last reading. An unknown id or a value outside [0, inf) in any reading,
    superseded or not, raises ContractError before anything changes. Returns
    the link indices written, in order of first arrival."""
    link_index = state.net.link_index
    link_readings: dict[int, tuple[float, float, bool]] = {}
    for pair, reading in links:
        idx = link_index.get(pair)
        if idx is None:
            raise ContractError(f"observation references unknown link {pair}")
        volume, speed, _ = reading
        # Chained comparisons are False for NaN: one test rejects NaN, negative
        # and infinite readings.
        if not 0 <= volume < INF:
            raise ContractError(f"volume for link {pair} must be finite and >= 0, "
                                f"got {volume}")
        if not 0 <= speed < INF:
            raise ContractError(f"speed for link {pair} must be finite and >= 0, "
                                f"got {speed}")
        link_readings[idx] = reading
    densities: dict[int, float] = {}
    for node, d in nodes:
        if node not in state.net.node_by_id:
            raise ContractError(f"observation references unknown node {node}")
        if not 0 <= d < INF:
            raise ContractError(f"pedestrian density at node {node} must be finite "
                                f"and >= 0, got {d}")
        densities[node] = d

    link_idx = list(link_readings)
    values = np.array(list(link_readings.values()), dtype=float).reshape(-1, 3)
    node_idx = np.fromiter(densities, dtype=int, count=len(densities))
    node_values = np.fromiter(densities.values(), dtype=float, count=len(densities))
    state.ingest_arrays(sources, np.array(link_idx, dtype=int), values[:, 0],
                        values[:, 1], values[:, 2] != 0.0, node_idx, node_values, now)
    return link_idx


def detect_pedestrian_gathering(state: TwinState) -> set[int]:
    """Nodes whose observed density strictly exceeds the state's density
    threshold; merged into the state's event-node set."""
    threshold = state.thresholds.density_threshold
    mask = state.node_observed & (state.node_density > threshold)
    flagged = {int(n) for n in np.nonzero(mask)[0]}
    state.event_nodes |= flagged
    return flagged


def detect_accident(state: TwinState, now: float) -> set[int]:
    """Indices of the links whose delivered readings stayed slow and occupied
    for the state's whole accident window; merged into the state's event-link
    set. Speeds are judged per reading at ingest time, so only the window
    length applies here. The twin keeps speed evidence per link, so an
    accident at an intersection surfaces through its approach links.
    """
    run = state.low_speed_since
    mask = ~np.isnan(run) & (now - run >= state.thresholds.accident_window_s)
    flagged = set(np.flatnonzero(mask).tolist())
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
