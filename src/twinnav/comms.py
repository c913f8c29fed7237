"""Stochastic communication and computation latencies, packet delivery, and
KPI evaluation against the end-to-end budgets.

Flows are sampled in milliseconds from configured [min, max] ranges (uniform
by default, optionally triangular matching a given mean) and composed into the
two service totals:

  twin-modeling latency  = rsu_detect + i2c
  route-service latency  = localization + route_load + cloud_monitor
                           + cloud_plan + 2 * v2c   (request and response legs
                           drawn independently; a single-v2c mode counts one
                           leg only, kept for comparison against deployments
                           that report it that way)

All sampling functions return seconds. Every flow owns its own RNG stream
derived from one seed, so sample streams are reproducible and independent.

One law per distribution turns uniform draws into milliseconds
(`FlowLatency.ms_from_uniform`), for one draw or for an array of them. The
per-route draws of the engine take one value at a time; the KPI Monte-Carlo
(`collect_latency_samples`) takes each stream's draws for a block of
SAMPLE_BLOCK samples in one pass and composes the totals with array sums. Its
samples are bit-identical to drawing one value at a time with the same seed,
and every stream ends in the same state.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError
from .nav import REQUEST_COEF

FLOW_NAMES = (
    "rsu_detect",
    "i2c",
    "v2c",
    "cloud_monitor",
    "cloud_plan",
    "localization",
    "route_load",
)
_STREAM_NAMES = FLOW_NAMES + ("pdr_ssms", "pdr_info")


@dataclass(frozen=True)
class FlowLatency:
    min_ms: float
    max_ms: float
    dist: str = "uniform"
    mean_ms: float | None = None  # required target mean for dist="triangular"

    def __post_init__(self):
        if not 0 <= self.min_ms <= self.max_ms:
            raise ConfigError(
                f"latency range needs 0 <= min <= max, got [{self.min_ms}, {self.max_ms}]"
            )
        if self.dist not in ("uniform", "triangular"):
            raise ConfigError(f"unknown latency distribution {self.dist!r}")
        if self.dist == "triangular":
            mode = self._triangular_mode()
            if not self.min_ms <= mode <= self.max_ms:
                raise ConfigError(
                    f"triangular mean {self.mean_ms} ms is not achievable "
                    f"within [{self.min_ms}, {self.max_ms}]"
                )

    def _triangular_mode(self) -> float:
        if self.mean_ms is None:
            raise ConfigError("triangular latency needs mean_ms")
        return 3.0 * self.mean_ms - self.min_ms - self.max_ms

    def ms_from_uniform(self, u):
        """Milliseconds from uniform draws `u` in [0, 1), one float or an
        array: the arithmetic of `random.uniform`, or of `random.triangular`
        at the flow's mode, so each value equals what that method returns
        for the same draw. Not for a pinned flow (min == max)."""
        lo, hi = self.min_ms, self.max_ms
        if self.dist == "uniform":
            return lo + (hi - lo) * u
        c = (self._triangular_mode() - lo) / (hi - lo)
        swap = u > c
        u = np.where(swap, 1.0 - u, u)
        c = np.where(swap, 1.0 - c, c)
        lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
        return lo + (hi - lo) * np.sqrt(u * c)

    def sample_ms(self, rng: random.Random) -> float:
        if self.min_ms == self.max_ms:
            return self.min_ms
        return float(self.ms_from_uniform(rng.random()))


# Default ranges reflect the measured reference deployment this simulator is
# parameterized after. The route_load row keeps the narrow published pair as
# [min, max]; its two printed bounds appear swapped at the source, and the
# smaller one is taken as the range minimum.
DEFAULT_FLOWS: dict[str, FlowLatency] = {
    "rsu_detect": FlowLatency(70.01, 153.41),
    "i2c": FlowLatency(1.10, 1.74),
    "v2c": FlowLatency(20.16, 42.13),
    "cloud_monitor": FlowLatency(42.72, 56.29),
    "cloud_plan": FlowLatency(173.27, 201.07),
    "localization": FlowLatency(2.56, 10.13),
    "route_load": FlowLatency(500.97, 501.35),
}


@dataclass(frozen=True)
class LatencyModel:
    flows: Mapping[str, FlowLatency] = field(
        default_factory=lambda: dict(DEFAULT_FLOWS)
    )
    pdr_ssms: float = 0.9953
    pdr_info: float = 1.0

    def __post_init__(self):
        missing = set(FLOW_NAMES) - set(self.flows)
        if missing:
            raise ConfigError(f"latency model missing flows: {sorted(missing)}")
        unknown = set(self.flows) - set(FLOW_NAMES)
        if unknown:
            raise ConfigError(f"latency model has unknown flows: {sorted(unknown)}")
        for name, p in (("pdr_ssms", self.pdr_ssms), ("pdr_info", self.pdr_info)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1], got {p}")

    def flow(self, name: str) -> FlowLatency:
        return self.flows[name]

    def with_flow(self, name: str, flow: FlowLatency) -> "LatencyModel":
        flows = dict(self.flows)
        flows[name] = flow
        return replace(self, flows=flows)

    def dt_bounds_s(self) -> tuple[float, float]:
        """Attainable [min, max] of the twin-modeling latency, in seconds."""
        lo = sum(self.flows[f].min_ms for f in ("rsu_detect", "i2c"))
        hi = sum(self.flows[f].max_ms for f in ("rsu_detect", "i2c"))
        return lo / 1000.0, hi / 1000.0

    def service_bounds_s(self, single_v2c: bool = False) -> tuple[float, float]:
        """Attainable [min, max] of the route-service latency, in seconds."""
        parts = ("localization", "route_load", "cloud_monitor", "cloud_plan")
        v2c_legs = 1 if single_v2c else 2
        lo = sum(self.flows[f].min_ms for f in parts) + v2c_legs * self.flows["v2c"].min_ms
        hi = sum(self.flows[f].max_ms for f in parts) + v2c_legs * self.flows["v2c"].max_ms
        return lo / 1000.0, hi / 1000.0


class FlowStreams:
    """One independent RNG per flow (plus the two delivery streams), all
    derived from a single seed. String seeding hashes with SHA-512, so streams
    are stable across runs and Python versions."""

    def __init__(self, seed: int | str):
        self.seed = seed
        self._rngs = {
            name: random.Random(f"{seed}/{name}") for name in _STREAM_NAMES
        }

    def rng(self, name: str) -> random.Random:
        return self._rngs[name]


# Samples per block of collect_latency_samples. Each stream's draws for a
# block are held as one float array of at most 4 * SAMPLE_BLOCK values.
SAMPLE_BLOCK = 1024

# Draws one KPI sample takes from each flow's stream, in the order drawn:
# i2c for ssms_e2e then twin_total; v2c for info_e2e, the two service_total
# legs, then service_total_single; rsu_detect for twin_total; the other
# flows for service_total then service_total_single.
_KPI_DRAWS = {
    "i2c": 2,
    "v2c": 4,
    "rsu_detect": 1,
    "localization": 2,
    "route_load": 2,
    "cloud_monitor": 2,
    "cloud_plan": 2,
}


def _draw_block(
    flow: FlowLatency, rng: random.Random, rows: int, per_row: int
) -> np.ndarray:
    """(rows, per_row) milliseconds from the stream's next rows * per_row
    draws, row by row. A pinned flow draws nothing, as `sample_ms`."""
    if flow.min_ms == flow.max_ms:
        return np.full((rows, per_row), flow.min_ms, dtype=float)
    n = rows * per_row
    u = np.fromiter(itertools.starmap(rng.random, itertools.repeat((), n)), float, count=n)
    return flow.ms_from_uniform(u).reshape(rows, per_row)


def sample_dt_latency(model: LatencyModel, streams: FlowStreams) -> float:
    """One draw of the twin-modeling latency (detection plus RSU-to-cloud leg),
    in seconds."""
    ms = model.flow("rsu_detect").sample_ms(streams.rng("rsu_detect"))
    ms += model.flow("i2c").sample_ms(streams.rng("i2c"))
    return ms / 1000.0


def sample_service_latency(
    model: LatencyModel, streams: FlowStreams, single_v2c: bool = False
) -> float:
    """One draw of the route-service latency, in seconds."""
    ms = model.flow("localization").sample_ms(streams.rng("localization"))
    ms += model.flow("route_load").sample_ms(streams.rng("route_load"))
    ms += model.flow("cloud_monitor").sample_ms(streams.rng("cloud_monitor"))
    ms += model.flow("cloud_plan").sample_ms(streams.rng("cloud_plan"))
    v2c = model.flow("v2c")
    ms += v2c.sample_ms(streams.rng("v2c"))
    if not single_v2c:
        ms += v2c.sample_ms(streams.rng("v2c"))
    return ms / 1000.0


def service_deadline_s(v_free_mps: float) -> float:
    """Time budget for the whole route service: the time a vehicle at v_free
    needs to cover the request distance before the intersection."""
    if v_free_mps <= 0:
        raise ContractError("v_free must be > 0")
    return REQUEST_COEF * v_free_mps


def check_deadline(t_svc_s: float, v_free_mps: float) -> bool:
    """True when a service latency fits the request-distance budget at v_free."""
    return t_svc_s <= service_deadline_s(v_free_mps)


def deliver(pdr: float, rng: random.Random) -> bool:
    """Bernoulli packet delivery."""
    if not 0.0 <= pdr <= 1.0:
        raise ContractError(f"pdr must be within [0, 1], got {pdr}")
    return rng.random() < pdr


def collect_latency_samples(
    model: LatencyModel, streams: FlowStreams, n_samples: int
) -> dict[str, list[float]]:
    """Monte-Carlo draws (seconds) for the KPI report: the two E2E flows, the
    twin-modeling total, and the service total in both V2C counting modes."""
    if n_samples < 1:
        raise ContractError("n_samples must be >= 1")
    out: dict[str, list[float]] = {
        "ssms_e2e": [],
        "info_e2e": [],
        "twin_total": [],
        "service_total": [],
        "service_total_single": [],
    }
    for start in range(0, n_samples, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, n_samples - start)
        ms = {
            name: _draw_block(model.flow(name), streams.rng(name), rows, k)
            for name, k in _KPI_DRAWS.items()
        }
        i2c, v2c = ms["i2c"], ms["v2c"]
        # Column 0 feeds service_total, column 1 service_total_single; the
        # sums keep the per-draw order, so every float rounds the same way.
        legs = (ms["localization"] + ms["route_load"] + ms["cloud_monitor"]
                + ms["cloud_plan"])
        out["ssms_e2e"] += (i2c[:, 0] / 1000.0).tolist()
        out["info_e2e"] += (v2c[:, 0] / 1000.0).tolist()
        out["twin_total"] += ((ms["rsu_detect"][:, 0] + i2c[:, 1]) / 1000.0).tolist()
        out["service_total"] += ((legs[:, 0] + v2c[:, 1] + v2c[:, 2]) / 1000.0).tolist()
        out["service_total_single"] += ((legs[:, 1] + v2c[:, 3]) / 1000.0).tolist()
    return out


@dataclass(frozen=True)
class KpiBudget:
    ssms_e2e_max_s: float = 0.010
    info_e2e_max_s: float = 0.100
    ssms_reliability_min: float = 0.95

    def service_deadline_s(self, v_free_mps: float) -> float:
        return service_deadline_s(v_free_mps)


@dataclass(frozen=True)
class KpiRow:
    metric: str
    n: int | None = None
    min_ms: float | None = None
    max_ms: float | None = None
    mean_ms: float | None = None
    limit: float | None = None
    observed: float | None = None
    passed: bool | None = None


@dataclass
class KpiReport:
    rows: list[KpiRow]

    CSV_HEADER = "metric,n,min_ms,max_ms,mean_ms,limit,observed,pass"

    def row(self, metric: str) -> KpiRow:
        for r in self.rows:
            if r.metric == metric:
                return r
        raise KeyError(metric)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)

    def to_csv(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "pass" if x else "fail"
            if isinstance(x, (int, str)):
                return str(x)
            return f"{x:.6f}"

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    fmt(v)
                    for v in (
                        r.metric,
                        r.n,
                        r.min_ms,
                        r.max_ms,
                        r.mean_ms,
                        r.limit,
                        r.observed,
                        r.passed,
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [
            f"{'metric':<24} {'n':>8} {'min ms':>10} {'max ms':>10} "
            f"{'mean ms':>10} {'limit':>10} {'verdict':>8}"
        ]
        for r in self.rows:
            def num(x):
                return f"{x:10.3f}" if x is not None else " " * 10

            verdict = "-" if r.passed is None else ("pass" if r.passed else "FAIL")
            n = f"{r.n:>8}" if r.n is not None else " " * 8
            lines.append(
                f"{r.metric:<24} {n} {num(r.min_ms)} {num(r.max_ms)} "
                f"{num(r.mean_ms)} {num(r.limit)} {verdict:>8}"
            )
        return "\n".join(lines) + "\n"


def _stats_row(
    metric: str,
    samples: Sequence[float],
    budget_s: float | None,
) -> tuple[KpiRow, float, float]:
    """The flow's row, plus its min and max in seconds."""
    if len(samples) == 0:
        raise ContractError(f"no samples for flow {metric!r}")
    mn, mx = min(samples), max(samples)
    checked = {} if budget_s is None else {
        "limit": budget_s * 1000.0, "observed": mx * 1000.0, "passed": mx <= budget_s,
    }
    row = KpiRow(
        metric=metric,
        n=len(samples),
        min_ms=mn * 1000.0,
        max_ms=mx * 1000.0,
        mean_ms=math.fsum(samples) / len(samples) * 1000.0,
        **checked,
    )
    return row, mn, mx


def kpi_report(
    samples: Mapping[str, Sequence[float]],
    budget: KpiBudget,
    *,
    pdr_ssms: float | None = None,
    pdr_info: float | None = None,
    deadline_v_free_mps: float | None = None,
) -> KpiReport:
    """Summarize latency draws (seconds) against the budgets.

    Recognized sample keys: ``ssms_e2e`` (checked against the SSMS E2E budget),
    ``info_e2e`` (information-sharing E2E budget), ``twin_total`` and
    ``service_total`` (deadline-checked when a v_free is given, plus the
    interval-separation check max(twin) < min(service)). Other keys get plain
    statistics. Delivery ratios are reported when given; only the SSMS ratio
    carries a pass floor.
    """
    if not samples:
        raise ContractError("no latency samples given")
    rows: list[KpiRow] = []
    budgets = {
        "ssms_e2e": budget.ssms_e2e_max_s,
        "info_e2e": budget.info_e2e_max_s,
    }
    deadline_s = (
        budget.service_deadline_s(deadline_v_free_mps)
        if deadline_v_free_mps is not None
        else None
    )
    extremes: dict[str, tuple[float, float]] = {}  # name -> (min, max) in seconds
    for name in samples:
        b = budgets.get(name)
        if name.startswith("service_total") and deadline_s is not None:
            b = deadline_s
        row, mn, mx = _stats_row(name, samples[name], b)
        rows.append(row)
        extremes[name] = (mn, mx)

    if pdr_ssms is not None:
        rows.append(
            KpiRow(
                metric="ssms_reliability",
                limit=budget.ssms_reliability_min,
                observed=pdr_ssms,
                passed=pdr_ssms > budget.ssms_reliability_min,
            )
        )
    if pdr_info is not None:
        # No reliability floor applies to the information-sharing flow.
        rows.append(KpiRow(metric="info_reliability", observed=pdr_info))

    if "twin_total" in samples and "service_total" in samples:
        dt_max = extremes["twin_total"][1]
        svc_min = extremes["service_total"][0]
        rows.append(
            KpiRow(
                metric="twin_before_service",
                limit=svc_min * 1000.0,
                observed=dt_max * 1000.0,
                passed=dt_max < svc_min,
            )
        )
    return KpiReport(rows=rows)
