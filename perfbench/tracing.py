"""Span tracing of twinnav from outside the package.

`Tracer.install()` replaces a fixed list of twinnav functions and `Engine`
phase methods with timing wrappers, in every twinnav module namespace that
holds them, so calls made through `from .x import f` are caught as well as
calls through `module.f`. Spans stay in memory (compact arrays) until the run
ends; `summary()` folds them into per-name call counts, total time and self
time (duration minus the time covered by child spans), and `write_spans()`
writes them out as CSV.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter_ns

# (module, attribute) pairs timed as spans. A dotted attribute is a method.
SPANS = (
    ("scenario", "load_scenario"),
    ("sweep", "run_sweep"),
    ("sim", "Engine.__init__"),
    ("sim", "Engine._spawn"),
    ("sim", "Engine._update_events"),
    ("sim", "Engine._compute_speeds"),
    ("sim", "Engine._sense_and_ingest"),
    ("sim", "Engine._detect"),
    ("sim", "Engine._plan"),
    ("sim", "Engine._move"),
    ("sim", "Engine._bookkeep"),
    ("network", "build_journey_matrix"),
    ("nav", "mask_events"),
    ("nav", "dijkstra_fastest"),
    ("nav", "plan_new_users"),
    ("nav", "replan_affected"),
    ("twin", "TwinState.ingest_arrays"),
    ("twin", "detect_pedestrian_gathering"),
    ("twin", "detect_accident"),
    ("twin", "clear_resolved_events"),
    ("service", "ServiceState.apply_sensor_update"),
    ("service", "ServiceState.plan_route"),
    ("comms", "collect_latency_samples"),
    ("comms", "kpi_report"),
)

# (module, attribute) pairs that are only counted: they run so often, or do
# so little, that a span would cost more than the call.
COUNTS = (
    ("sim", "Engine._journal_route"),
    ("comms", "sample_service_latency"),
)


def _after_hooks(tracer: "Tracer"):
    """Counters read off a call's arguments or result, keyed by span name."""

    def routes_planned(args, result):
        tracer.count("nav.routes_planned", len(result.routes))

    def vehicles_on_links(args, result):
        tracer.count("sim.vehicle_steps", int(args[0].link_counts.sum()))

    def draws(args, result):
        tracer.count("comms.draws", int(args[2]))

    def ingest_by_source(args, result):
        # args: the twin, the source key (kind, id), the link indices, ...
        kind = args[1][0]
        tracer.count(f"twin.ingest_{kind}_calls")
        tracer.count(f"twin.ingest_{kind}_links", len(args[2]))

    return {
        "nav.plan_new_users": routes_planned,
        "nav.replan_affected": routes_planned,
        "sim.Engine._bookkeep": vehicles_on_links,
        "comms.collect_latency_samples": draws,
        "twin.TwinState.ingest_arrays": ingest_by_source,
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._root = array("q")
        self._start = array("q")
        self._end = array("q")
        self.counters: dict[str, int] = {}
        self._cells: dict[str, list[int]] = {}  # counts of count-only wrappers
        # Open spans. Traced calls come from one thread at a time: the
        # engine's, or the handler of the route service's single connection.
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _span_wrapper(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self._start)
            parent = stack[-1] if stack else -1
            self._name.append(nid)
            self._parent.append(parent)
            self._root.append(self._root[parent] if parent >= 0 else idx)
            self._start.append(0)
            self._end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self._start[idx] = t0
                self._end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------- patching

    def install(self) -> "Tracer":
        """Wrap every listed function wherever a twinnav module refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = _after_hooks(self)
        for table, spans in ((SPANS, True), (COUNTS, False)):
            for mod_name, attr in table:
                module = importlib.import_module(f"twinnav.{mod_name}")
                name = f"{mod_name}.{attr}"
                cls_name, _, leaf = attr.rpartition(".")
                if cls_name:
                    owners = [getattr(module, cls_name)]
                    original = owners[0].__dict__[leaf]
                else:
                    original = getattr(module, leaf)
                    owners = [
                        mod for mod in list(sys.modules.values())
                        if getattr(mod, "__name__", "").split(".")[0] == "twinnav"
                        and mod.__dict__.get(leaf) is original
                    ]
                wrapped = (
                    self._span_wrapper(name, original, hooks.get(name))
                    if spans
                    else self._count_wrapper(name, original)
                )
                for owner in owners:
                    self._patch(owner, leaf, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -------------------------------------------------------------- results

    def summary(self) -> dict:
        """Per span name: calls, total_ns and self_ns; plus the counters."""
        n = len(self._start)
        child = [0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        stats: dict[str, dict[str, int]] = {}
        for i in range(n):
            name = self.names[self._name[i]]
            dur = self._end[i] - self._start[i]
            s = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["total_ns"] += dur
            s["self_ns"] += dur - child[i]
        counters = dict(self.counters)
        counters.update((name, cell[0]) for name, cell in self._cells.items())
        return {"spans": stats, "counters": counters}

    def __len__(self) -> int:
        return len(self._start)

    def write_spans(self, path: str) -> None:
        """One CSV row per span: id, root id, parent id, name, start and end
        in nanoseconds of the process's perf counter."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,root,parent,name,start_ns,end_ns\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{i},{self._root[i]},{self._parent[i]},"
                    f"{self.names[self._name[i]]},{self._start[i]},{self._end[i]}\n"
                )


def merge_summaries(*summaries: dict) -> dict:
    spans: dict[str, dict[str, int]] = {}
    counters: dict[str, int] = {}
    for s in summaries:
        for name, st in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for k in acc:
                acc[k] += st[k]
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return {"spans": spans, "counters": counters}


PHASES = (
    ("spawn", "_spawn"),
    ("events", "_update_events"),
    ("speeds", "_compute_speeds"),
    ("sense_ingest", "_sense_and_ingest"),
    ("detect", "_detect"),
    ("plan", "_plan"),
    ("move", "_move"),
    ("bookkeep", "_bookkeep"),
)


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that spans and counters give.
    A layer the workload never calls reads 0. `service.overhead_us` and
    `trace.overhead_pct` need the client's view and come from the workload."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_ns", 0)

    def per_call(name, scale):
        c = calls(name)
        return total(name) / c / scale if c else 0.0

    steps = calls("sim.Engine._spawn")
    out = {"sim.engine_init_ms": per_call("sim.Engine.__init__", 1e6)}
    for short, meth in PHASES:
        self_ns = spans.get(f"sim.Engine.{meth}", {}).get("self_ns", 0)
        out[f"sim.{short}_ms"] = self_ns / steps / 1e6 if steps else 0.0
    out["sim.vehicle_steps"] = counters.get("sim.vehicle_steps", 0)
    out["sim.routes_applied"] = counters.get("sim.Engine._journal_route", 0)
    out["network.build_journey_matrix_us"] = per_call(
        "network.build_journey_matrix", 1e3
    )
    out["network.build_journey_matrix_calls"] = calls("network.build_journey_matrix")
    out["nav.mask_events_us"] = per_call("nav.mask_events", 1e3)
    out["nav.dijkstra_fastest_us"] = per_call("nav.dijkstra_fastest", 1e3)
    out["nav.dijkstra_fastest_calls"] = calls("nav.dijkstra_fastest")
    out["nav.routes_planned"] = counters.get("nav.routes_planned", 0)
    out["twin.ingest_arrays_us"] = per_call("twin.TwinState.ingest_arrays", 1e3)
    out["twin.ingest_arrays_calls"] = calls("twin.TwinState.ingest_arrays")
    passes = calls("twin.detect_accident")
    detect_ns = sum(
        total(f"twin.{f}")
        for f in ("detect_pedestrian_gathering", "detect_accident",
                  "clear_resolved_events")
    )
    out["twin.detect_us"] = detect_ns / passes / 1e3 if passes else 0.0
    out["service.apply_sensor_update_us"] = per_call(
        "service.ServiceState.apply_sensor_update", 1e3
    )
    out["service.plan_route_us"] = per_call("service.ServiceState.plan_route", 1e3)
    n_draws = counters.get("comms.draws", 0)
    out["comms.draw_us"] = (
        total("comms.collect_latency_samples") / n_draws / 1e3 if n_draws else 0.0
    )
    out["comms.kpi_report_ms"] = per_call("comms.kpi_report", 1e6)
    out["comms.sample_service_latency_calls"] = counters.get(
        "comms.sample_service_latency", 0
    )
    out["scenario.load_scenario_ms"] = per_call("scenario.load_scenario", 1e6)
    return out


def phase_shares(summary: dict) -> dict[str, float]:
    """Inclusive share of engine step time per phase, in percent."""
    spans = summary["spans"]
    totals = {
        short: spans.get(f"sim.Engine.{meth}", {}).get("total_ns", 0)
        for short, meth in PHASES
    }
    whole = sum(totals.values())
    return {k: 100.0 * v / whole for k, v in totals.items()} if whole else {}
