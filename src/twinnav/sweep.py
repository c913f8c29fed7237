"""Parameter sweeps: repeat runs across a value grid with derived seeds and
collect per-run plus per-value aggregate metrics in one CSV."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigError
from .scenario import Scenario
from .sim import MetricsSummary, run

SWEEP_PARAMS = ("p_user", "events")


def derive_seed(base_seed: int, point_index: int, replicate: int) -> int:
    """base XOR the first 8 bytes (big-endian) of SHA-256 over "k:r"."""
    digest = hashlib.sha256(f"{point_index}:{replicate}".encode("ascii")).digest()
    return base_seed ^ int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    param: str  # "p_user" | "events"
    values: tuple
    seeds_per_point: int = 1

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}")
        if not self.values:
            raise ConfigError("sweep needs a non-empty value list")
        if self.seeds_per_point < 1:
            raise ConfigError("seeds_per_point must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    seed: str  # seed integer, or "agg" for the per-value aggregate
    metrics: MetricsSummary


def _apply(base: Scenario, param: str, value) -> Scenario:
    if param == "p_user":
        return base.with_p_user(float(value))
    return base.with_event_count(int(value))


def _aggregate(param: str, value, rows: list[SweepRow]) -> SweepRow:
    def agg(name):
        xs = [getattr(r.metrics, name) for r in rows]
        xs = [x for x in xs if not (isinstance(x, float) and math.isnan(x))]
        return sum(xs) / len(xs) if xs else math.nan

    summary = MetricsSummary(
        spawned_cav=int(agg("spawned_cav")),
        spawned_unconnected=int(agg("spawned_unconnected")),
        completed_cav=int(agg("completed_cav")),
        completed_unconnected=int(agg("completed_unconnected")),
        **{f: agg(f) for f in MetricsSummary.CSV_FIELDS},
    )
    return SweepRow(param=param, value=float(value), seed="agg", metrics=summary)


def run_sweep(spec: SweepSpec, *, single_v2c: bool = False) -> list[SweepRow]:
    rows: list[SweepRow] = []
    base_seed = spec.base.sim.seed
    # Every value is checked before the first run.
    scenarios = [_apply(spec.base, spec.param, value) for value in spec.values]
    for k, (value, scenario) in enumerate(zip(spec.values, scenarios)):
        point_rows = []
        for r in range(spec.seeds_per_point):
            seed = derive_seed(base_seed, k, r)
            metrics = run(scenario.with_seed(seed), single_v2c=single_v2c)
            point_rows.append(
                SweepRow(
                    param=spec.param,
                    value=float(value),
                    seed=str(seed),
                    metrics=metrics,
                )
            )
        rows.extend(point_rows)
        rows.append(_aggregate(spec.param, value, point_rows))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    header = "param,value,seed," + MetricsSummary.csv_header()
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.param},{row.value:.6f},{row.seed},{row.metrics.csv_row()}"
        )
    return "\n".join(lines) + "\n"


def aggregates(rows: list[SweepRow]) -> list[SweepRow]:
    return [r for r in rows if r.seed == "agg"]
