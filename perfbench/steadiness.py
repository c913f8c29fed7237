"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--seconds S]
                                    [--first-seed 1000]

Makes 2 x RUNS untraced runs of `perfbench/run.py`, alternating between set
A and set B, each run with its own seed. For every end-to-end metric of
BENCHMARK.json it prints per set the median, the quartiles and the spread
(quartile distance over median), the same over both sets together, and
says whether the sets agree: every spread within the metric's bound, set
B's median within the bound of set A's in either direction, and the same
share of failed operations in both. Exits 1 if they do not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]

    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for i in range(2 * args.runs):
        label = "AB"[i % 2]
        res = one_run(args.workload, args.first_seed + i, seconds)
        sets[label].append(res)
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"{label} seed={args.first_seed + i} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} {vals}", flush=True)

    agree = True
    for s in sets.values():
        if not all(r["correct"] for r in s):
            print("a run reported incorrect output")
            agree = False
    share = {k: sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
             for k, s in sets.items()}
    if share["A"] != share["B"]:
        print(f"failed share differs: {share}")
        agree = False
    print(f"\n{'metric':<18} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = {}
        for label, s in sets.items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in s])
            stats[label] = med
            spread = (q3 - q1) / med
            ok = spread <= bound
            agree &= ok
            print(f"{name:<18} {label:<3} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
                  f"{spread:>7.3f} {bound:>6.2f}  "
                  f"{'ok' if ok else 'SPREAD TOO WIDE'}"
                  f"{'' if spread <= bound / 3 else ' (above a third of the bound)'}")
        q1, med, q3 = quartiles([r["metrics"][name]["value"]
                                 for s in sets.values() for r in s])
        print(f"{name:<18} {'all':<3} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
              f"{(q3 - q1) / med:>7.3f} {bound:>6.2f}")
        change = stats["B"] / stats["A"] - 1.0
        ok = abs(change) <= bound
        agree &= ok
        print(f"{name:<18} B vs A: {change:+.3f} ({'ok' if ok else 'OUTSIDE THE BOUND'})")
    print("\nsets agree" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
