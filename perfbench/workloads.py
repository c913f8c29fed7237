"""The four workloads. Each is a `Workload`: `start()` loads the inputs and
returns the set-up times it measured (the set-up a user pays, repeated),
`op(i)` runs one whole operation, timed, then checked, `finish()` runs the
checks that need the whole run, and `stop()` releases what `start()` took.

Every call into twinnav goes through a module attribute (`sweep.run_sweep`,
`sim.Engine`, ...) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from twinnav import comms, sim, sweep
from twinnav import scenario as scenario_mod

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))

METRIC_FIELDS = (
    "mean_tt_cav_s", "mean_tt_unconnected_s", "mean_tt_overall_s",
    "mean_enc_cav", "mean_enc_unconnected", "mean_enc_overall",
    "blocking_cav", "blocking_unconnected", "blocking_overall",
)


@dataclass
class RunArgs:
    workload: str
    seed: int
    seconds: float
    root: str  # checkout root
    out: str  # directory for generated inputs, records and spans


@dataclass
class OpResult:
    units: int  # engine steps, service messages or latency draws
    busy_s: float  # time the program worked on the operation
    latencies_s: list  # per engine step, sweep run, route request or kpi call
    attempted: int


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(fn, batch: int) -> float:
    """One set-up time: the mean over `batch` back-to-back set-ups, so that
    a sample lasts about 0.1 s, started from a heap with no garbage."""
    gc.collect()
    t0 = perf_counter()
    for _ in range(batch):
        fn()
    return (perf_counter() - t0) / batch


class Workload:
    name = ""

    def __init__(self, args: RunArgs, traced: bool = False):
        self.args = args
        self.traced = traced
        self.counts: dict[str, int] = {}  # operations by kind, for the run record

    def start(self) -> list[float]:
        """Load the inputs; return the set-up times measured on the way."""
        raise NotImplementedError

    def setup_sample(self) -> float | None:
        """One more set-up time, taken between ops, or None if set-up cannot
        be repeated mid-run."""
        return None

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run."""

    def stop(self) -> dict:
        return {}


# ------------------------------------------------------------------ engine


class _EngineWorkload(Workload):
    spec: dict = {}
    setup_batch = 1

    def __init__(self, args: RunArgs, traced: bool = False):
        super().__init__(args, traced)
        self.path, self.doc, net_doc = inputs.write_inputs(
            os.path.join(args.out, "inputs"), self.name.replace("-", "_"),
            self.spec, inputs.derived_seed(self.name, args.seed, "base"),
        )
        self.net = checks.NetRef(net_doc)
        self.capacity = np.array(
            [l["k_max_veh_per_m"] * l["length_m"] for l in net_doc["links"]]
        )
        self.n_vel = self.doc["traffic"]["n_vel"]
        self.dt = self.doc["sim"]["dt_s"]
        self.base = None
        self.counts["engine_runs"] = 0

    def setup_sample(self) -> float:
        return time_setup(
            lambda: sim.Engine(scenario_mod.load_scenario(self.path)),
            self.setup_batch,
        )

    def start(self) -> list[float]:
        setup = [self.setup_sample() for _ in range(3)]
        self.base = scenario_mod.load_scenario(self.path)
        return setup

    def checked_run(self, scenario):
        """One engine run with the invariants checked after every step; the
        checks run inside `on_step` and their time is left out."""
        step_s: list[float] = []
        mark = 0.0

        def on_step(eng, step):
            nonlocal mark
            step_s.append(perf_counter() - mark)
            checks.check_engine_step(eng, self.capacity)
            mark = perf_counter()

        self.counts["engine_runs"] += 1
        eng = sim.Engine(scenario, on_step=on_step)
        mark = perf_counter()
        metrics = eng.run()
        tail = perf_counter() - mark
        checks.check_engine_final(eng, self.net, self.n_vel, self.dt)
        checks.check_metrics_row(metrics, self.n_vel, f"seed {eng.seed}")
        return metrics, step_s, sum(step_s) + tail


class TrendSweep(_EngineWorkload):
    """One op is one round: a 2-value x 2-seed slice of the p_user sweep and
    one of the events sweep (8 runs). Round r pairs the r-th lowest and
    highest values of each criterion-6 grid, so every round mixes cheap and
    costly runs alike."""

    name = "trend-sweep"
    spec = inputs.TREND
    setup_batch = 20
    seeds_per_point = 2

    def specs(self, r: int):
        base = self.base.with_seed(inputs.derived_seed(self.name, self.args.seed, r))
        i = r % 5
        P, E = inputs.P_VALUES, inputs.E_VALUES
        return [
            sweep.SweepSpec(base=base, param="p_user", values=(P[i], P[-1 - i]),
                            seeds_per_point=self.seeds_per_point),
            sweep.SweepSpec(base=base, param="events", values=(E[i], E[-1 - i]),
                            seeds_per_point=self.seeds_per_point),
        ]

    def op(self, r: int) -> OpResult:
        specs = self.specs(r)
        busy, per_run, runs, results = 0.0, [], 0, []
        for spec in specs:
            n = len(spec.values) * spec.seeds_per_point
            t0 = perf_counter()
            rows = sweep.run_sweep(spec)
            dt = perf_counter() - t0
            self.counts["engine_runs"] += n
            busy += dt
            per_run.append(dt / n)
            runs += n
            results.append(rows)
        for spec, rows in zip(specs, results):
            checks.check_sweep(rows, spec.param, spec.values, spec.seeds_per_point,
                               spec.base.sim.seed, METRIC_FIELDS)
            for row in rows:
                checks.check_metrics_row(row.metrics, self.n_vel,
                                         f"{spec.param}={row.value} seed {row.seed}")
        if not self.traced:  # the untraced pass of a traced run did it
            self.recheck(specs, results, r)
        n_steps = int(round(self.doc["sim"]["t_sim_s"] / self.dt))
        return OpResult(runs * n_steps, busy, per_run, runs)

    def recheck(self, specs, results, r: int) -> None:
        """Re-run one replicate of the round (a different one each round)
        directly, with every engine invariant checked, and require the same
        metrics row as the sweep reported."""
        spec, rows = specs[r % 2], results[r % 2]
        k, rep = (r // 2) % 2, (r // 4) % self.seeds_per_point
        value = spec.values[k]
        sc = (spec.base.with_p_user(value) if spec.param == "p_user"
              else spec.base.with_event_count(value))
        seed = checks.derive_seed(spec.base.sim.seed, k, rep)
        metrics, _, _ = self.checked_run(sc.with_seed(seed))
        row = rows[k * (self.seeds_per_point + 1) + rep].metrics
        checks.require(metrics.csv_row() == row.csv_row(),
                       f"{spec.param}={value} seed {seed}: sweep row "
                       f"{row.csv_row()} != direct run {metrics.csv_row()}")


class MetroGrid(_EngineWorkload):
    """One op is one 600-step run with a fresh scenario seed."""

    name = "metro-grid"
    spec = inputs.METRO
    setup_batch = 3

    def op(self, r: int) -> OpResult:
        seed = inputs.derived_seed(self.name, self.args.seed, r)
        _, step_s, busy = self.checked_run(self.base.with_seed(seed))
        return OpResult(len(step_s), busy, step_s, 1)


# --------------------------------------------------------------------- kpi


class KpiMc(Workload):
    """One op is what `twinnav kpi` computes with its default 100000 samples:
    the Monte-Carlo of all seven flows, then `kpi_report` against the default
    budgets."""

    name = "kpi-mc"
    spec = inputs.TREND
    setup_batch = 20
    draws = 100_000

    def __init__(self, args: RunArgs, traced: bool = False):
        super().__init__(args, traced)
        self.path, _, _ = inputs.write_inputs(
            os.path.join(args.out, "inputs"), "kpi", self.spec,
            inputs.derived_seed(self.name, args.seed, "base"),
            extra={"latency": inputs.kpi_latency_block()},
        )
        self.counts["draws"] = 0

    def setup_sample(self) -> float:
        return time_setup(
            lambda: comms.FlowStreams(scenario_mod.load_scenario(self.path).sim.seed),
            self.setup_batch,
        )

    def start(self) -> list[float]:
        setup = [self.setup_sample() for _ in range(3)]
        sc = scenario_mod.load_scenario(self.path)
        self.model = sc.latency
        self.streams = comms.FlowStreams(sc.sim.seed)
        self.sums: dict[str, float] = {}
        self.n = 0
        return setup

    def op(self, i: int) -> OpResult:
        model = self.model
        self.counts["draws"] += self.draws
        t0 = perf_counter()
        samples = comms.collect_latency_samples(model, self.streams, self.draws)
        report = comms.kpi_report(
            samples, comms.KpiBudget(), pdr_ssms=model.pdr_ssms,
            pdr_info=model.pdr_info, deadline_v_free_mps=20.0 / 3.6,
        )
        dt = perf_counter() - t0
        checks.check_kpi(samples, report, inputs.FLOWS_MS, self.draws)
        for key, xs in samples.items():
            self.sums[key] = self.sums.get(key, 0.0) + math.fsum(xs)
        self.n += self.draws
        return OpResult(self.draws, dt, [dt], self.draws)

    def finish(self) -> None:
        """The run's sample means, over all ops: a finer test than one op's."""
        for key, total in self.sums.items():
            checks.check_kpi_mean(key, total, self.n, inputs.FLOWS_MS)


# ----------------------------------------------------------------- service


class _Conn:
    """One closed-loop client connection with Nagle's algorithm off."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self) -> dict:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("route service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _line(msg: dict) -> bytes:
    return (json.dumps(msg, separators=(",", ":")) + "\n").encode("utf-8")


# glibc settings of the server process: large arrays stay on the heap, as
# they do in a default server after its first ~50 rounds (its handler thread
# then takes ~0 page faults per round). Left dynamic, the moment of that
# switch differs from run to run; the benchmark process itself keeps glibc's
# starting threshold (see run.py).
SERVER_MALLOC = {"MALLOC_MMAP_THRESHOLD_": "4194304",
                 "MALLOC_TRIM_THRESHOLD_": "8388608"}


class RouteService(Workload):
    """The route service in its own process on the metro network, driven by
    one closed-loop connection. One op is one round: the sensor updates the
    metro-grid engine ingests per route it plans, then one route request.

    The mix comes from the counters of a traced metro-grid run (`--seed 12`,
    two 600-step runs): 157957 `ingest_arrays` calls, 19102 from RSUs with
    83.5 links each (all they cover) and 138855 from connected vehicles with
    one link each, against 2087 `dijkstra_fastest` calls. Per route that is
    9.2 RSU and 66.5 vehicle updates, so a round sends 9 RSU updates (the
    next 9 of the 16 RSUs in turn, each with every link and node it covers)
    and 67 vehicle updates (one random link, no node). Six fixed incident
    links and three fixed incident nodes lie inside RSU coverage; every RSU
    update that covers them reports the links slow (0.1 m/s) and occupied
    and the nodes at 1.2 persons/m2, from t = 0 s, so the links are past the
    10 s accident window from t = 10 s on. The clock advances 1 s per
    round."""

    name = "route-service"
    rsu_updates = 9
    cav_updates = 67
    updates_per_round = rsu_updates + cav_updates

    def __init__(self, args: RunArgs, traced: bool = False):
        super().__init__(args, traced)
        self.path, doc, net_doc = inputs.write_inputs(
            os.path.join(args.out, "inputs"), "service", inputs.METRO,
            inputs.derived_seed(self.name, args.seed, "base"),
        )
        self.net = checks.NetRef(net_doc)
        self.pairs = sorted(self.net.links)
        self.nodes = self.net.node_ids
        # RSU coverage as the scenario defines it: the nodes within the
        # radius, and the links with both ends among them.
        xy = {n["id"]: (n["x_m"], n["y_m"]) for n in net_doc["nodes"]}
        self.rsus: list[tuple[list[int], list[tuple[int, int]]]] = []
        for rsu in doc["sensing"]["rsus"]:
            cov = {n for n in self.nodes
                   if math.dist(xy[n], xy[rsu["node"]]) <= rsu["radius_m"]}
            self.rsus.append((sorted(cov), [p for p in self.pairs
                                            if p[0] in cov and p[1] in cov]))
        # Fixed incidents inside RSU coverage, the same for every seed.
        pick = random.Random("perfbench/route-service/incidents")
        rows, cols, _ = inputs.METRO["grid"]
        covered = {n for cov, _ in self.rsus for n in cov}
        interior = [n for n in self.nodes if n in covered
                    and 0 < (n - 1) % cols < cols - 1 and 0 < (n - 1) // cols < rows - 1]
        self.incident_nodes = sorted(pick.sample(interior, 3))
        covered_links = {p for _, links in self.rsus for p in links}
        inner_links = [p for p in sorted(covered_links)
                       if p[0] in interior and p[1] in interior
                       and not set(p) & set(self.incident_nodes)]
        self.incident_links = sorted(pick.sample(inner_links, 6))
        self.masked = set(self.incident_links) | {
            p for p in self.pairs if p[1] in self.incident_nodes
        }
        self.free_pairs = [p for p in self.pairs if p not in self.incident_links]
        self.free_nodes = [n for n in self.nodes if n not in self.incident_nodes]
        self.free_flow = {p: self.net.journey_time(p, 0.0) for p in self.pairs}
        self.rng = random.Random(f"perfbench/route-service/{args.seed}")
        self.counts.update(route_requests=0, sensor_updates=0, error_replies=0)
        self.proc = None
        self.conn = None
        # The benchmark's own copy of the twin: journey time per link under
        # the volumes sent so far, and the links and nodes it must avoid.
        self.weight: dict = {}
        self.avoid_links: set = set()
        self.avoid_nodes: set = set()

    # ------------------------------------------------------------ process

    def _start_server(self, spans: str | None = None):
        """Start a server process and send it a probe request; return the
        process, the connection and the time until the probe's reply. The
        probe comes before any update, so it is checked against free-flow
        times and no incidents."""
        env = dict(os.environ, **SERVER_MALLOC)
        src = os.path.join(self.args.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, os.path.join(HERE, "server.py"), "--scenario", self.path]
        if spans:
            cmd += ["--spans", spans]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                cwd=self.args.root, env=env)
        try:
            ready = proc.stdout.readline()
            if not ready:
                raise RuntimeError("route service exited before listening")
            conn = _Conn(json.loads(ready)["port"])
            probe = {"type": "route_request", "vehicle": "probe",
                     "position": self.nodes[0], "destination": self.nodes[-1]}
            conn.send(_line(probe))
            reply = conn.recv()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        elapsed = perf_counter() - t0
        self.counts["route_requests"] += 1
        checks.check_route_reply(self.net, self.free_flow, set(), set(), probe, reply)
        return proc, conn, elapsed

    def setup_sample(self) -> float | None:
        """One server start up to its first reply, in a server of its own,
        which is then killed: only the measuring server is stopped cleanly."""
        if self.traced:
            return None
        proc, conn, elapsed = self._start_server()
        conn.close()
        proc.kill()
        proc.communicate()
        return elapsed

    def _shutdown(self) -> dict:
        """Close the connection and stdin; the server prints its final line
        (peak RSS, span statistics) and exits."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        proc, self.proc = self.proc, None
        if proc is None:
            return {}
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("route service did not stop")
        if proc.returncode != 0:
            raise RuntimeError(f"route service exited with {proc.returncode}")
        return json.loads(out.decode("utf-8").strip().splitlines()[-1])

    def start(self) -> list[float]:
        """Time two server starts, then start the measuring server (once
        when traced), timed as well. Every RSU then reports at t = 0, 5 and
        10 s, which flags the incidents."""
        setup = [] if self.traced else [self.setup_sample() for _ in range(2)]
        spans = (os.path.join(self.args.out,
                              f"spans-{self.name}-{self.args.seed}-server.csv")
                 if self.traced else None)
        self.proc, self.conn, elapsed = self._start_server(spans)
        setup.append(elapsed)
        self.weight = dict(self.free_flow)
        self.conn.send(b"".join(self._rsu_update(t, k) for t in (0.0, 5.0, 10.0)
                                for k in range(len(self.rsus))))
        self.avoid_links = set(self.incident_links)
        self.avoid_nodes = set(self.incident_nodes)
        for pair in self.masked:
            self.weight[pair] = checks.INF
        return setup

    def stop(self) -> dict:
        return self._shutdown()

    # ----------------------------------------------------------- messages

    def _update(self, time_s: float, source, links: list, nodes: list) -> bytes:
        self.counts["sensor_updates"] += 1
        for item in links:
            pair = (item["from"], item["to"])
            if pair not in self.avoid_links and pair[1] not in self.avoid_nodes:
                self.weight[pair] = self.net.journey_time(pair, item["volume"])
        return _line({"type": "sensor_update",
                      "source": {"kind": source[0], "id": source[1]},
                      "time_s": time_s, "links": links, "nodes": nodes})

    def _reading(self, pair) -> dict:
        """A reading below 0.8 of jam density, so never slow (< 0.5 m/s)."""
        length, v_free, k_max = self.net.links[pair]
        vol = self.rng.randrange(0, int(0.8 * k_max * length) + 1)
        return {"from": pair[0], "to": pair[1], "volume": vol,
                "speed_mps": round(v_free * (1.0 - vol / (k_max * length)), 3),
                "occupied": vol > 0}

    def _rsu_update(self, time_s: float, k: int) -> bytes:
        """RSU k reports every link and node it covers: incident links slow
        and occupied, incident nodes over the density threshold, the rest
        free-flowing and below the threshold."""
        cov_nodes, cov_links = self.rsus[k]
        links = [{"from": p[0], "to": p[1], "volume": 3, "speed_mps": 0.1,
                  "occupied": True} if p in self.incident_links else self._reading(p)
                 for p in cov_links]
        nodes = [{"id": n, "density": 1.2 if n in self.incident_nodes
                  else round(self.rng.uniform(0.0, 0.4), 3)} for n in cov_nodes]
        return self._update(time_s, ("rsu", k), links, nodes)

    def _cav_update(self, time_s: float) -> bytes:
        """A connected vehicle reports the one link it is on."""
        pair = self.rng.choice(self.free_pairs)
        return self._update(time_s, ("cav", self.rng.randrange(1, 10_000)),
                            [self._reading(pair)], [])

    def _check_reply(self, req: dict, reply: dict) -> None:
        if reply.get("type") == "error":
            self._drain_errors()
            raise checks.CheckFailed(f"error reply in a valid round: {reply}")
        checks.check_route_reply(self.net, self.weight, self.avoid_links,
                                 self.avoid_nodes, req, reply)

    def _drain_errors(self) -> None:
        """Count the error replies still queued: send a probe and read up to
        its reply."""
        self.counts["error_replies"] += 1
        self.conn.send(_line({"type": "route_request", "vehicle": "drain",
                              "position": self.nodes[0],
                              "destination": self.nodes[-1]}))
        while True:
            reply = self.conn.recv()
            if reply.get("vehicle") == "drain":
                return
            self.counts["error_replies"] += reply.get("type") == "error"

    def op(self, r: int) -> OpResult:
        t = 11.0 + r
        updates = b"".join(
            [self._rsu_update(t, (self.rsu_updates * r + j) % len(self.rsus))
             for j in range(self.rsu_updates)]
            + [self._cav_update(t) for _ in range(self.cav_updates)]
        )
        a, b = self.rng.sample(self.free_nodes, 2)
        req = {"type": "route_request", "vehicle": f"v{r}", "position": a,
               "destination": b}
        request = _line(req)
        t0 = perf_counter()
        self.conn.send(updates)
        t1 = perf_counter()
        self.conn.send(request)
        reply = self.conn.recv()
        t2 = perf_counter()
        self.counts["route_requests"] += 1
        self._check_reply(req, reply)
        return OpResult(self.updates_per_round + 1, t2 - t0, [t2 - t1],
                        self.updates_per_round + 1)


WORKLOADS = {
    "trend-sweep": TrendSweep,
    "metro-grid": MetroGrid,
    "route-service": RouteService,
    "kpi-mc": KpiMc,
}

# Fixed work of the traced run, (ops, ops per chunk): about 10-20 s per half.
TRACED_OPS = {"trend-sweep": (2, 1), "metro-grid": (2, 1),
              "route-service": (800, 100), "kpi-mc": (8, 2)}


@dataclass
class Totals:
    ops: int = 0
    units: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    latencies_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    op_busy_s: list = field(default_factory=list)

    def add(self, r: OpResult) -> None:
        self.ops += 1
        self.units += r.units
        self.busy_s += r.busy_s
        self.op_busy_s.append(r.busy_s)
        self.attempted += r.attempted
        self.latencies_s.extend(r.latencies_s)


# Seconds between set-up samples taken during the measurement. The machine's
# speed wanders by a third within a second or two, so set-up samples spread
# over the whole run give a steadier median than a burst at its start.
SETUP_EVERY_S = 1.0


def measure(w: Workload, tot: Totals, seconds: float | None = None,
            n_ops: int | None = None) -> Totals:
    """Whole ops into `tot` until `seconds` have passed, or exactly `n_ops`,
    with a set-up sample (outside the op timing) about every second."""
    t0 = last = perf_counter()
    while (tot.ops < n_ops) if n_ops is not None else (perf_counter() - t0 < seconds):
        tot.add(w.op(tot.ops))
        if perf_counter() - last >= SETUP_EVERY_S:
            sample = w.setup_sample()
            if sample is not None:
                tot.setup_s.append(sample)
            last = perf_counter()
    return tot


def end_to_end(tot: Totals, rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(tot.setup_s),
        "throughput_per_s": tot.units / tot.busy_s,
        "latency_p50_ms": statistics.median(tot.latencies_s) * 1e3,
        "peak_rss_mb": rss_mb,
    }
