"""Benchmark of twinnav: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout: twinnav is imported from its `src/`, nothing
is installed. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json, measured for about S seconds of
whole operations; with `--trace 1` they are the per-layer metrics of a fixed
amount of work, run once untraced and once traced (the difference is
`trace.overhead_pct`). Generated inputs, a record of each run (machine,
counts, metrics) and span files go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
MALLOC_ENV, MALLOC_VALUE = "MALLOC_MMAP_THRESHOLD_", "131072"

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_program() -> None:
    """Put the checkout's `src/` first on the path and make sure twinnav is
    imported from there, not from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twinnav", "__init__.py")):
        raise SystemExit(f"perfbench: no twinnav sources under {src}")
    sys.path.insert(0, src)
    import twinnav

    if os.path.dirname(os.path.dirname(os.path.abspath(twinnav.__file__))) != src:
        raise SystemExit(f"perfbench: twinnav imported from {twinnav.__file__}")


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Progress:
    """What a run has done so far, readable also when it stops early: the
    totals of its measurements and the workloads, with their counts of
    operations by kind."""

    def __init__(self):
        self.totals: list = []
        self.workloads: list = []

    def add(self, w, tot) -> None:
        self.workloads.append(w)
        self.totals.append(tot)

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.totals)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for w in self.workloads:
            for k, v in w.counts.items():
                out[k] = out.get(k, 0) + v
        return out


def untraced(w_cls, args, progress: Progress) -> tuple[dict, dict]:
    from workloads import Totals, end_to_end, measure, peak_rss_mb

    w = w_cls(args)
    tot = Totals()
    progress.add(w, tot)
    try:
        tot.setup_s.extend(w.start())
        measure(w, tot, seconds=args.seconds)
    finally:
        extra = w.stop()
    w.finish()
    rss = extra.get("peak_rss_mb", peak_rss_mb())
    detail = {"ops": tot.ops, "units": tot.units, "busy_s": tot.busy_s,
              "setup_samples_s": tot.setup_s, "latency_samples": len(tot.latencies_s),
              "op_busy_s": tot.op_busy_s[:500]}
    return end_to_end(tot, rss), detail


def traced(w_cls, args, progress: Progress) -> tuple[dict, dict]:
    """The same fixed work twice, in alternating chunks so that both halves
    see the same machine: once untraced and once with the tracer installed
    (for route-service, against a second server that traces itself).
    Per-layer metrics come from the traced half; the ratio of the two busy
    times is the tracing overhead."""
    from tracing import Tracer, layer_metrics, merge_summaries, phase_shares
    from workloads import TRACED_OPS, Totals, measure

    n_ops, chunk = TRACED_OPS[args.workload]
    tracer = Tracer()
    plain, traced_w = w_cls(args), w_cls(args, traced=True)
    plain_tot, tot = Totals(), Totals()
    progress.add(plain, plain_tot)
    progress.add(traced_w, tot)
    try:
        plain.start()
        with tracer:
            traced_w.start()
        for target in range(chunk, n_ops + chunk, chunk):
            measure(plain, plain_tot, n_ops=min(target, n_ops))
            with tracer:
                measure(traced_w, tot, n_ops=min(target, n_ops))
    finally:
        try:
            plain.stop()
        finally:
            extra = traced_w.stop()
    plain.finish()
    traced_w.finish()
    summaries = [tracer.summary()] + ([extra["summary"]] if "summary" in extra else [])
    summary = merge_summaries(*summaries)
    metrics = layer_metrics(summary)
    # Per route-service round: the client's round time (updates sent to
    # route reply) minus the server's time in plan_route and in the round's
    # apply_sensor_update calls, i.e. parsing, socket I/O and handler loop.
    plan_us = metrics["service.plan_route_us"]
    updates = getattr(w_cls, "updates_per_round", 0)
    metrics["service.overhead_us"] = (
        tot.busy_s / tot.ops * 1e6 - plan_us
        - updates * metrics["service.apply_sensor_update_us"]
        if plan_us else 0.0
    )
    metrics["trace.overhead_pct"] = (tot.busy_s / plain_tot.busy_s - 1.0) * 100.0
    detail = {
        "ops": n_ops,
        "untraced_busy_s": plain_tot.busy_s,
        "traced_busy_s": tot.busy_s,
        "phase_share_pct": phase_shares(summary),
        "spans": summary["spans"],
        "counters": summary["counters"],
    }
    if len(tracer):
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv")
        tracer.write_spans(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, detail


def pin_malloc_threshold() -> None:
    """Re-run this process with glibc's mmap threshold fixed at its default
    starting value (128 KiB), the mode a default engine or kpi process stays
    in: every metro-grid step then maps and faults in its fresh 1.3 MB
    journey matrices (~930 page faults per step, left dynamic or pinned
    alike), and glibc cannot switch mode at a moment that differs from run
    to run. The route-service server sets its own mode (`SERVER_MALLOC` in
    workloads.py)."""
    if os.environ.get(MALLOC_ENV) != MALLOC_VALUE:
        env = dict(os.environ, **{MALLOC_ENV: MALLOC_VALUE})
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; their output is
    passed through and the last line sums them up, metrics keyed
    `<workload>.<metric>`."""
    import subprocess

    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1]) if lines else {"correct": False}
        total["correct"] &= proc.returncode == 0 and res["correct"]
        total["attempted"] += res.get("attempted", 0)
        total["failed"] += res.get("failed", 0)
        total["metrics"].update(
            (f"{name}.{k}", v) for k, v in res.get("metrics", {}).items())
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    if args.workload == "all":
        return run_all(args)
    import checks
    from workloads import WORKLOADS, RunArgs

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    run_args = RunArgs(args.workload, args.seed, args.seconds, ROOT, OUT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info()}
    # A run that stops early reports what it got through plus the operation
    # that stopped it, which counts as attempted and failed.
    progress = Progress()
    correct, failed, metrics, error = True, 0, {}, None
    try:
        metrics, record["detail"] = (traced if args.trace else untraced)(
            WORKLOADS[args.workload], run_args, progress)
    except checks.CheckFailed as exc:
        correct, failed, error = False, 1, f"check failed: {exc}"
    except Exception:
        correct, failed, error = False, 1, traceback.format_exc()
    attempted = progress.attempted + failed
    if error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    record.update(correct=correct, attempted=attempted, failed=failed,
                  counts=progress.counts(), error=error, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "runs", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"load={m['loadavg_at_start']} python={m['python']} numpy={m['numpy']}")
    print(f"{args.workload} attempted={attempted} failed={failed} "
          + " ".join(f"{k}={v}" for k, v in record["counts"].items()))
    units = {k: UNITS.get(k) or layer_unit(k) for k in metrics}
    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_malloc_threshold()
    sys.exit(main())
