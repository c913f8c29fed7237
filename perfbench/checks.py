"""Correctness checks on twinnav's outputs.

Every check compares against the benchmark's own computation from the inputs
it generated (network documents, volumes it sent, flow ranges it configured)
or against a property the method must have. None compares against saved
output. Each check raises `CheckFailed` with the first violation it finds.
"""

from __future__ import annotations

import hashlib
import math
from heapq import heappop, heappush

import numpy as np

INF = math.inf
# Speeds at or below this floor close a link (the program's documented law).
SPEED_FLOOR_MPS = 1e-6
# Slack for the engine's end-of-link epsilon when comparing travel times.
TT_SLACK_S = 1e-6


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class NetRef:
    """The benchmark's own view of a network document: per-link length,
    free-flow speed and jam density, and out-adjacency in id order."""

    def __init__(self, doc: dict):
        self.node_ids = sorted(n["id"] for n in doc["nodes"])
        self.links: dict[tuple[int, int], tuple[float, float, float]] = {}
        self.out: dict[int, list[int]] = {n: [] for n in self.node_ids}
        for item in doc["links"]:
            pair = (item["from"], item["to"])
            self.links[pair] = (
                float(item["length_m"]),
                float(item["v_free_mps"]),
                float(item["k_max_veh_per_m"]),
            )
            self.out[pair[0]].append(pair[1])
        for vs in self.out.values():
            vs.sort()

    def free_flow_s(self, nodes) -> float:
        return sum(
            self.links[(a, b)][0] / self.links[(a, b)][1]
            for a, b in zip(nodes, nodes[1:])
        )

    def journey_time(self, pair: tuple[int, int], volume: float) -> float:
        """Linear speed-density law: v = v_free * (1 - (volume/length) / k_max)."""
        length, v_free, k_max = self.links[pair]
        speed = max(0.0, v_free * (1.0 - (volume / length) / k_max))
        return INF if speed <= SPEED_FLOOR_MPS else length / speed


def check_chain(net: NetRef, nodes, origin: int, destination: int, what: str) -> None:
    require(len(nodes) >= 2, f"{what}: route {nodes} has fewer than two nodes")
    require(
        nodes[0] == origin and nodes[-1] == destination,
        f"{what}: route {nodes[0]}..{nodes[-1]} does not join "
        f"{origin} to {destination}",
    )
    for a, b in zip(nodes, nodes[1:]):
        require((a, b) in net.links, f"{what}: route uses missing link {a}->{b}")


# ------------------------------------------------------------------ engine


def check_engine_step(eng, capacity) -> None:
    """Per-step invariants: link counts equal queue lengths and stay within
    k_max * length (`capacity`, computed by the benchmark)."""
    counts = eng.link_counts
    queued = np.fromiter(map(len, eng.link_queues), dtype=np.int64,
                         count=len(eng.link_queues))
    bad = np.nonzero(counts != queued)[0]
    require(bad.size == 0, f"step {eng.step}: link counts "
                           f"{counts[bad[:3]].tolist()} but queues "
                           f"{queued[bad[:3]].tolist()} on links {bad[:3].tolist()}")
    over = np.nonzero(counts > capacity)[0]
    require(over.size == 0, f"step {eng.step}: links {over[:3].tolist()} hold "
                            f"{counts[over[:3]].tolist()}, above k_max * length")


def check_engine_final(eng, net: NetRef, n_vel: int, dt: float) -> None:
    """End-of-run invariants over every spawned vehicle."""
    vehicles = eng.vehicles
    require(len(vehicles) <= n_vel, f"{len(vehicles)} spawned > n_vel {n_vel}")
    queued = {}
    for li, dq in enumerate(eng.link_queues):
        for veh in dq:
            queued[veh.vid] = li
    on_links = 0
    for veh in vehicles:
        what = f"vehicle {veh.vid}"
        if veh.arrival_step is not None:
            require(veh.link_idx is None and veh.vid not in queued,
                    f"{what}: arrived but still on a link")
        elif veh.link_idx is not None:
            require(queued.get(veh.vid) == veh.link_idx,
                    f"{what}: on link {veh.link_idx} but not in its queue")
            on_links += 1
        else:
            require(veh.vid not in queued, f"{what}: waiting but queued on a link")
        if veh.route is None:
            require(veh.link_idx is None and veh.arrival_step is None,
                    f"{what}: moved without a route")
            continue
        nodes = list(veh.route.nodes)
        check_chain(net, nodes, veh.origin, veh.destination, what)
        if veh.arrival_step is not None:
            tt = (veh.arrival_step - veh.entry_step) * dt
            ff = net.free_flow_s(nodes)
            require(tt + TT_SLACK_S >= ff,
                    f"{what}: travel time {tt:.3f} s below free-flow {ff:.3f} s")
    require(on_links == int(eng.link_counts.sum()),
            f"{on_links} vehicles on links but link counts sum to "
            f"{int(eng.link_counts.sum())}")


def check_metrics_row(m, n_vel: int, what: str) -> None:
    spawned = m.spawned_cav + m.spawned_unconnected
    require(spawned <= n_vel, f"{what}: spawned {spawned} > n_vel {n_vel}")
    require(m.completed_cav <= m.spawned_cav
            and m.completed_unconnected <= m.spawned_unconnected,
            f"{what}: more vehicles completed than spawned")
    for name in ("blocking_cav", "blocking_unconnected", "blocking_overall"):
        x = getattr(m, name)
        require(math.isnan(x) or 0.0 <= x <= 1.0, f"{what}: {name}={x} outside [0, 1]")


# ------------------------------------------------------------------- sweep


def derive_seed(base_seed: int, point_index: int, replicate: int) -> int:
    """Documented replicate seed: base XOR first 8 bytes (big-endian) of
    SHA-256("k:r")."""
    digest = hashlib.sha256(f"{point_index}:{replicate}".encode("ascii")).digest()
    return base_seed ^ int.from_bytes(digest[:8], "big")


def _mean(xs):
    xs = [x for x in xs if not (isinstance(x, float) and math.isnan(x))]
    return sum(xs) / len(xs) if xs else math.nan


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def check_sweep(rows, param: str, values, seeds_per_point: int, base_seed: int,
                fields) -> None:
    """Rows come per value: `seeds_per_point` replicate rows, then one agg row.
    Seeds follow the documented derivation; each agg field is the mean of the
    replicate rows with NaN left out (integer fields truncated)."""
    require(len(rows) == len(values) * (seeds_per_point + 1),
            f"sweep {param}: {len(rows)} rows for {len(values)} values")
    per = seeds_per_point + 1
    for k, value in enumerate(values):
        block = rows[k * per:(k + 1) * per]
        reps, agg = block[:-1], block[-1]
        for r, row in enumerate(reps):
            want = derive_seed(base_seed, k, r)
            require(row.param == param and row.value == float(value),
                    f"sweep {param}: row {k}/{r} labelled {row.param}={row.value}")
            require(row.seed == str(want),
                    f"sweep {param}={value} replicate {r}: seed {row.seed} != {want}")
        require(agg.seed == "agg", f"sweep {param}={value}: no agg row")
        for f in fields:
            want = _mean([getattr(r.metrics, f) for r in reps])
            got = getattr(agg.metrics, f)
            require(_same(got, want),
                    f"sweep {param}={value}: agg {f}={got} != mean {want}")
        for f in ("spawned_cav", "spawned_unconnected", "completed_cav",
                  "completed_unconnected"):
            want = int(_mean([getattr(r.metrics, f) for r in reps]))
            require(getattr(agg.metrics, f) == want,
                    f"sweep {param}={value}: agg {f} != {want}")


# ----------------------------------------------------------------- service


def shortest_cost(net: NetRef, weight, start: int, end: int) -> float:
    """Dijkstra over the benchmark's adjacency; `weight[(a, b)]` may be inf."""
    dist = {start: 0.0}
    done = set()
    heap = [(0.0, start)]
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        if u == end:
            return d
        done.add(u)
        for v in net.out[u]:
            w = weight[(u, v)]
            if w == INF or v in done:
                continue
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heappush(heap, (nd, v))
    return INF


def check_route_reply(net: NetRef, weight, masked_links: set, masked_nodes: set,
                      request: dict, reply: dict) -> None:
    """An `ok` route joins the requested nodes over existing links, avoids
    every incident link and never enters an incident node, and costs the
    shortest-path cost under `weight` (the law applied to the volumes sent),
    within 1e-9 relative. `unreachable` must be confirmed by the benchmark."""
    what = f"request {request['vehicle']}"
    require(reply.get("type") == "route_response", f"{what}: reply {reply}")
    require(reply.get("vehicle") == request["vehicle"],
            f"{what}: reply for {reply.get('vehicle')}")
    start, end = request["position"], request["destination"]
    best = shortest_cost(net, weight, start, end)
    if reply["status"] == "unreachable":
        require(best == INF, f"{what}: unreachable, but a path of {best:.3f} s exists")
        return
    require(reply["status"] == "ok", f"{what}: status {reply['status']}")
    nodes = reply["route"]
    check_chain(net, nodes, start, end, what)
    hops = list(zip(nodes, nodes[1:]))
    for a, b in hops:
        require((a, b) not in masked_links, f"{what}: route crosses incident link {a}->{b}")
        require(b not in masked_nodes, f"{what}: route enters incident node {b}")
    cost = sum(weight[h] for h in hops)
    require(best < INF and abs(cost - best) <= 1e-9 * best,
            f"{what}: route costs {cost!r} s, shortest is {best!r} s")


# --------------------------------------------------------------------- kpi


def kpi_bounds_ms(flows: dict) -> dict[str, tuple[float, float, float, float]]:
    """Per sample key: (min, max, mean, variance) in ms of the flow sums the
    key is made of, for independent uniform flows."""

    def comp(parts):
        lo = sum(flows[p][0] for p in parts)
        hi = sum(flows[p][1] for p in parts)
        mean = sum((flows[p][0] + flows[p][1]) / 2 for p in parts)
        var = sum((flows[p][1] - flows[p][0]) ** 2 / 12 for p in parts)
        return lo, hi, mean, var

    svc = ["localization", "route_load", "cloud_monitor", "cloud_plan", "v2c"]
    return {
        "ssms_e2e": comp(["i2c"]),
        "info_e2e": comp(["v2c"]),
        "twin_total": comp(["rsu_detect", "i2c"]),
        "service_total": comp(svc + ["v2c"]),
        "service_total_single": comp(svc),
    }


def check_kpi_mean(key: str, total_s: float, n: int, flows: dict) -> None:
    """The mean of `n` draws summing to `total_s` lies within five standard
    errors of the analytic mean."""
    _, _, mean, var = kpi_bounds_ms(flows)[key]
    got = total_s / n * 1e3
    se = math.sqrt(var / n)
    require(abs(got - mean) <= 5 * se,
            f"kpi {key}: mean {got:.4f} ms over {n} draws vs analytic "
            f"{mean:.4f} ms (5 SE = {5 * se:.4f})")


def check_kpi(samples: dict, report, flows: dict, n: int) -> None:
    """Draws lie within the sums of the flow ranges; sample means lie within
    five standard errors of the analytic means; the report restates the
    draws and passes the default budgets."""
    bounds = kpi_bounds_ms(flows)
    require(set(samples) == set(bounds), f"kpi sample keys {sorted(samples)}")
    eps = 1e-9
    for key, (lo, hi, _, _) in bounds.items():
        xs = samples[key]
        require(len(xs) == n, f"kpi {key}: {len(xs)} draws, expected {n}")
        x_min, x_max = min(xs) * 1e3, max(xs) * 1e3
        require(lo - eps <= x_min and x_max <= hi + eps,
                f"kpi {key}: draws span [{x_min:.4f}, {x_max:.4f}] ms "
                f"outside [{lo:.4f}, {hi:.4f}] ms")
        check_kpi_mean(key, math.fsum(xs), n, flows)
        row = report.row(key)
        require(row.n == n and math.isclose(row.max_ms, x_max, rel_tol=1e-12),
                f"kpi {key}: report row {row} does not restate the draws")
    require(report.all_passed, "kpi report fails a default budget")
