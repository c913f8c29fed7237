"""Route-service process of the route-service workload.

Serves a scenario the way `twinnav serve` does (one `RouteService`, one
thread per connection) on a free loopback port. Prints `{"port": N}` once it
listens; when its stdin reaches end of file it shuts down and prints one JSON
line with its peak RSS and, with `--spans`, the span summary of its traced
calls (the spans themselves go to that CSV file).

    PYTHONPATH=src python3 perfbench/server.py --scenario S.json [--spans F.csv]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--spans", help="trace the service and write spans here")
    args = ap.parse_args()

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer().install()
    from twinnav import scenario as scenario_mod
    from twinnav.service import RouteService

    server = RouteService(scenario_mod.load_scenario(args.scenario), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        out["summary"] = tracer.summary()
        tracer.write_spans(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
