"""Seeded generation of grid-style road networks for experiments and tests.

Every orthogonal neighbor pair gets a two-way road (one link per direction);
a random subset of diagonal pairs is added on top until the requested link
count is reached. Free-flow speeds vary per road so time-optimal and
distance-optimal routes genuinely differ.
"""

from __future__ import annotations

import random

from .errors import ConfigError


def generate_grid_network(
    rows: int = 9,
    cols: int = 10,
    spacing_m: float = 100.0,
    n_links: int = 504,
    v_free_range_mps: tuple[float, float] = (8.0, 14.0),
    k_max_veh_per_m: float = 0.2,
    seed: int = 0,
) -> dict:
    """JSON-ready network document with rows*cols nodes and n_links links."""
    rng = random.Random(f"netgen/{seed}")
    n_nodes = rows * cols

    def node_id(r: int, c: int) -> int:
        return r * cols + c + 1

    nodes = [
        {"id": node_id(r, c), "x_m": c * spacing_m, "y_m": r * spacing_m}
        for r in range(rows)
        for c in range(cols)
    ]

    ortho: list[tuple[int, int]] = []
    diag: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                ortho.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                ortho.append((node_id(r, c), node_id(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                diag.append((node_id(r, c), node_id(r + 1, c + 1)))
                diag.append((node_id(r, c + 1), node_id(r + 1, c)))

    if n_links % 2 != 0:
        raise ConfigError("n_links must be even (roads are two-way)")
    n_pairs = n_links // 2
    if n_pairs < len(ortho):
        raise ConfigError(
            f"n_links too small: the orthogonal grid alone needs {2 * len(ortho)}"
        )
    extra = n_pairs - len(ortho)
    if extra > len(diag):
        raise ConfigError(
            f"n_links too large: at most {2 * (len(ortho) + len(diag))} available"
        )
    pairs = ortho + sorted(rng.sample(diag, extra))

    by_id = {n["id"]: n for n in nodes}
    links = []
    lo, hi = v_free_range_mps
    for a, b in pairs:
        na, nb = by_id[a], by_id[b]
        length = ((na["x_m"] - nb["x_m"]) ** 2 + (na["y_m"] - nb["y_m"]) ** 2) ** 0.5
        v_free = rng.uniform(lo, hi)
        for u, v in ((a, b), (b, a)):
            links.append(
                {
                    "from": u,
                    "to": v,
                    "length_m": round(length, 3),
                    "v_free_mps": round(v_free, 3),
                    "k_max_veh_per_m": k_max_veh_per_m,
                }
            )

    assert len(nodes) == n_nodes and len(links) == n_links
    return {"nodes": nodes, "links": links}

