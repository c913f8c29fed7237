"""Workload inputs, generated by the benchmark itself so that they stay fixed
while the program changes. Networks are fixed; everything that varies comes
from the `--seed` argument through `derived_seed`."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

# Criterion-6 sweep grids (tests/test_acceptance.py): p_user from 10 to 100
# connected users out of 300, and 0..10 random events.
P_VALUES = tuple(round(n / 300, 4) for n in range(10, 101, 10))
E_VALUES = tuple(range(11))

# Latency ranges of the seven flows in ms (the paper's measured deployment),
# written into the kpi scenario so the checks use the benchmark's own copy.
FLOWS_MS = {
    "rsu_detect": (70.01, 153.41),
    "i2c": (1.10, 1.74),
    "v2c": (20.16, 42.13),
    "cloud_monitor": (42.72, 56.29),
    "cloud_plan": (173.27, 201.07),
    "localization": (2.56, 10.13),
    "route_load": (500.97, 501.35),
}
THRESHOLDS = {"density_threshold": 0.5, "speed_threshold": 0.5,
              "accident_window_s": 10.0}


def derived_seed(*parts) -> int:
    """A 32-bit seed from the workload name, the --seed value and an index."""
    key = "/".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def grid_network(rows: int, cols: int, n_links: int, seed: int,
                 spacing_m: float = 100.0, v_free=(5.0, 15.0),
                 k_max: float = 0.1) -> dict:
    """Two-way roads between orthogonal neighbours plus a seeded subset of
    diagonals up to `n_links` links; free-flow speed drawn per road."""
    rng = random.Random(f"perfbench-grid/{rows}x{cols}/{seed}")

    def nid(r, c):
        return r * cols + c + 1

    nodes = [{"id": nid(r, c), "x_m": c * spacing_m, "y_m": r * spacing_m}
             for r in range(rows) for c in range(cols)]
    ortho, diag = [], []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                ortho.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                ortho.append((nid(r, c), nid(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                diag.append((nid(r, c), nid(r + 1, c + 1)))
                diag.append((nid(r, c + 1), nid(r + 1, c)))
    pairs = ortho + sorted(rng.sample(diag, n_links // 2 - len(ortho)))
    xy = {n["id"]: (n["x_m"], n["y_m"]) for n in nodes}
    links = []
    for a, b in pairs:
        length = round(math.dist(xy[a], xy[b]), 3)
        v = round(rng.uniform(*v_free), 3)
        for u, w in ((a, b), (b, a)):
            links.append({"from": u, "to": w, "length_m": length,
                          "v_free_mps": v, "k_max_veh_per_m": k_max})
    return {"nodes": nodes, "links": links}


# The criterion-6 scenario: 9x10 nodes, 504 links, 300 vehicles, 600 steps.
TREND = {
    "grid": (9, 10, 504),
    "scenario": {
        "sim": {"dt_s": 1.0, "t_sim_s": 600.0, "seed": 42},
        "traffic": {"n_vel": 300, "p_user": 0.167},
        "events_random": {"count": 5, "kinds": ["accident", "gathering"],
                          "onset_max_s": 300.0, "duration_s": 250.0},
        "sensing": {"rsus": [{"node": r * 10 + c + 1, "radius_m": 250.0}
                             for r in (1, 4, 7) for c in (1, 4, 7)]},
        "thresholds": THRESHOLDS,
    },
}

# A 20x20 metro grid: 400 nodes, 2242 links, 3000 vehicles, 600 steps.
METRO = {
    "grid": (20, 20, 2242),
    "scenario": {
        "sim": {"dt_s": 1.0, "t_sim_s": 600.0, "seed": 42},
        "traffic": {"n_vel": 3000, "p_user": 0.167},
        "events_random": {"count": 10, "kinds": ["accident", "gathering"],
                          "onset_max_s": 300.0, "duration_s": 250.0},
        "sensing": {"rsus": [{"node": r * 20 + c + 1, "radius_m": 250.0}
                             for r in (1, 6, 11, 16) for c in (1, 6, 11, 16)]},
        "thresholds": THRESHOLDS,
    },
}


def write_inputs(out_dir: str, name: str, spec: dict, seed: int,
                 extra: dict | None = None) -> tuple[str, dict, dict]:
    """Write `<name>_network.json` and `<name>.json` (scenario referring to
    the network file) into `out_dir`; return the scenario path and both
    documents."""
    os.makedirs(out_dir, exist_ok=True)
    rows, cols, n_links = spec["grid"]
    net = grid_network(rows, cols, n_links, seed=1)
    doc = json.loads(json.dumps(spec["scenario"]))
    doc["sim"]["seed"] = seed
    doc.update(extra or {})
    doc["network_file"] = f"{name}_network.json"
    with open(os.path.join(out_dir, doc["network_file"]), "w", encoding="utf-8") as fh:
        json.dump(net, fh)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path, doc, net


def kpi_latency_block() -> dict:
    block = {name: {"min_ms": lo, "max_ms": hi, "dist": "uniform"}
             for name, (lo, hi) in FLOWS_MS.items()}
    block.update({"pdr_ssms": 0.9953, "pdr_info": 1.0})
    return block
