"""Command-line entry points: run, sweep, kpi, serve.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
The SMDT_LOG environment variable (debug|info|warning|error) controls log
verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys

from .comms import (
    MAX_SAMPLES,
    FlowStreams,
    KpiBudget,
    collect_latency_samples,
    kpi_report,
)
from .errors import ConfigError
from .scenario import Scenario, load_scenario
from .sim import MetricsSummary, journal_writer, run
from .sweep import SWEEP_PARAMS, SweepSpec, run_sweep, sweep_csv

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _setup_logging() -> None:
    level_name = os.environ.get("SMDT_LOG", "warning").lower()
    levels = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }
    if level_name not in levels:
        print(f"SMDT_LOG must be one of {sorted(levels)}", file=sys.stderr)
        level_name = "warning"
    logging.basicConfig(
        level=levels[level_name],
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _escape_unprintable(text: str) -> str:  # NUL as \x00, ESC as \x1b
    return "".join(c if c.isprintable() else ascii(c)[1:-1] for c in text)


def _load(scenario_path: str, seed: int | None) -> Scenario:
    scenario = load_scenario(scenario_path)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_run(args) -> int:
    scenario = _load(args.scenario, args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.ExitStack() as stack:
        journals = [
            stack.enter_context(
                open(os.path.join(out_dir, name), "w", encoding="utf-8"))
            if wanted else None
            for wanted, name in ((args.twin_journal, "twin_journal.jsonl"),
                                 (args.routes_journal, "routes_journal.jsonl"))]
        on_step = journal_writer(*journals) if any(journals) else None
        metrics = run(scenario, single_v2c=args.svc_single_v2c, on_step=on_step)
    csv_text = MetricsSummary.csv_header() + "\n" + metrics.csv_row() + "\n"
    _write(os.path.join(out_dir, "metrics.csv"), csv_text)
    print(csv_text, end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load(args.scenario, args.seed)
    kind = SWEEP_PARAMS[args.param][0]
    try:
        values = tuple(kind(v) for v in args.values.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --values list {args.values!r}: {exc}") from exc
    spec = SweepSpec(base=scenario, param=args.param, values=values,
                     seeds_per_point=args.seeds)
    rows = run_sweep(spec, single_v2c=args.svc_single_v2c)
    _write(os.path.join(args.out, "sweep.csv"), sweep_csv(rows))
    print(f"wrote {os.path.join(args.out, 'sweep.csv')} ({len(rows)} rows)")
    return EXIT_OK


def cmd_kpi(args) -> int:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must be within [1, {MAX_SAMPLES}], got {args.samples}")
    if not 0 < args.v_free_kmh < math.inf:  # False for NaN too
        raise ConfigError(f"--v-free-kmh must be finite and > 0, got {args.v_free_kmh}")
    scenario = _load(args.scenario, args.seed)
    model = scenario.latency
    streams = FlowStreams(scenario.sim.seed)
    samples = collect_latency_samples(model, streams, args.samples)
    report = kpi_report(
        samples,
        KpiBudget(),
        pdr_ssms=model.pdr_ssms,
        pdr_info=model.pdr_info,
        deadline_v_free_mps=args.v_free_kmh / 3.6,
    )
    print(report.render_text(), end="")
    if args.out:
        _write(os.path.join(args.out, "kpi.csv"), report.to_csv())
    return EXIT_OK if report.all_passed else EXIT_RUNTIME


def cmd_serve(args) -> int:
    from .service import serve_forever

    scenario = _load(args.scenario, args.seed)
    serve_forever(scenario, args.host, args.port)
    return EXIT_OK


def _port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be within 0..65535, got {port}")
    return port


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twinnav",
        description=(
            "Mesoscopic traffic simulator with a cloud traffic twin, "
            "event-triggered route planning, and a stochastic V2X latency model."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_out=True):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
        if needs_out:
            sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("run", help="run one simulation and write metrics.csv")
    common(sp)
    sp.add_argument("--twin-journal", action="store_true",
                    help="write per-step twin snapshots (twin_journal.jsonl)")
    sp.add_argument("--routes-journal", action="store_true",
                    help="write applied routes (routes_journal.jsonl)")
    sp.add_argument("--svc-single-v2c", action="store_true",
                    help="count one V2C leg in the service latency")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="run a parameter sweep and write sweep.csv")
    common(sp)
    sp.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sp.add_argument("--values", required=True,
                    help="comma-separated sweep values")
    sp.add_argument("--seeds", type=int, default=1, help="replicates per value")
    sp.add_argument("--svc-single-v2c", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("kpi", help="Monte-Carlo latency/KPI evaluation")
    common(sp, needs_out=False)
    sp.add_argument("--out", default=None, help="directory for kpi.csv")
    sp.add_argument("--samples", type=int, default=100_000,
                    help=f"Monte-Carlo samples (1 to {MAX_SAMPLES})")
    sp.add_argument("--v-free-kmh", type=float, default=20.0,
                    help="speed used for the service deadline check "
                         "(finite, > 0)")
    sp.set_defaults(func=cmd_kpi)

    sp = sub.add_parser("serve", help="line-delimited JSON route service")
    common(sp, needs_out=False)
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=_port, default=8700,
                    help="TCP port, 0..65535 (0: any free port)")
    sp.set_defaults(func=cmd_serve)

    return p


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {_escape_unprintable(str(exc))}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # last-resort diagnostics
        log.exception("unhandled failure")
        print(f"runtime failure: {_escape_unprintable(str(exc))}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
