"""Stochastic communication and computation latencies, packet delivery, and
KPI evaluation against the end-to-end budgets.

Flows are sampled in milliseconds from configured [min, max] ranges (uniform
by default, optionally triangular matching a given mean) and composed into the
two service totals:

  twin-modeling latency  = rsu_detect + i2c                     (TWIN_FLOWS)
  route-service latency  = localization + route_load + cloud_monitor
                           + cloud_plan + v2c + v2c             (SERVICE_FLOWS)

Each v2c leg (request, response) is its own draw; a single-v2c mode drops the
last, for comparison with deployments that report it that way. `KPI_SERIES`
is the one place the totals are written down: the per-draw samplers, the
bounds and the KPI Monte-Carlo all add up its flows in the listed order.

All sampling functions return seconds. Every flow owns its own RNG stream
derived from one seed, so sample streams are reproducible and independent.

One law per distribution turns uniform draws into milliseconds
(`FlowLatency.ms_from_uniform`), for one draw or for an array of them. The
per-route draws of the engine take one value at a time; the KPI Monte-Carlo
(`collect_latency_samples`) takes each stream's draws for a block of
SAMPLE_BLOCK samples in one pass and composes the totals with array sums,
written straight into one float64 array per series. Its samples are
bit-identical to drawing one value at a time with the same seed, and every
stream ends in the same state. SAMPLE_BLOCK and `exact_sum`'s SUM_CHUNK keep
every temporary under glibc's 128 KB mmap threshold (as the benchmark sets
it), so no call page-faults fresh memory.

`kpi_report` reads arrays (or lists) of samples. Its mean is exact: the
correctly rounded sum of `exact_sum`, equal bit for bit to `math.fsum` of the
same values, divided by the count. It takes finite samples within
+-MAX_SAMPLE_S seconds and rejects any other with ContractError.

The Monte-Carlo draws those blocks in C. CPython's `random.Random` and
numpy's `MT19937` are the same Mersenne Twister, and both make a double from
two 32-bit outputs a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53
(`genrand_res53` in CPython, `mt19937_next_double` in numpy). So a numpy
generator set to a stream's 624-word key and position yields the values the
stream's `random()` would, in order; its key and position are written back
into the stream afterwards, which keeps the stream's version and
`gauss_next`. `numpy.random` is imported only when the Monte-Carlo runs:
numpy loads it lazily, and the engine, the sweeps and the route service never
need it, so they do not pay its memory.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import astuple, dataclass, field, replace
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

# The two service totals, as the flows they add up in order.
TWIN_FLOWS = ("rsu_detect", "i2c")
SERVICE_FLOWS = ("localization", "route_load", "cloud_monitor", "cloud_plan", "v2c", "v2c")

# The KPI Monte-Carlo's series, in the order one sample draws them.
KPI_SERIES: dict[str, tuple[str, ...]] = {
    "ssms_e2e": ("i2c",),
    "info_e2e": ("v2c",),
    "twin_total": TWIN_FLOWS,
    "service_total": SERVICE_FLOWS,
    "service_total_single": SERVICE_FLOWS[:-1],
}


def _service_flows(single_v2c: bool) -> tuple[str, ...]:
    return KPI_SERIES["service_total_single" if single_v2c else "service_total"]


# Largest max_ms a flow takes: one minute, over 100x the slowest bundled flow
# (501.35 ms), so every sum of flows stays far inside float range.
MAX_FLOW_MS = 60_000.0


@dataclass(frozen=True)
class FlowLatency:
    min_ms: float
    max_ms: float
    dist: str = "uniform"
    mean_ms: float | None = None  # required target mean for dist="triangular"

    def __post_init__(self):
        if not 0 <= self.min_ms <= self.max_ms <= MAX_FLOW_MS:
            raise ConfigError(
                f"latency range needs 0 <= min <= max <= {MAX_FLOW_MS:g}, "
                f"got [{self.min_ms}, {self.max_ms}]"
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

    def with_flow(self, name: str, flow: FlowLatency) -> "LatencyModel":
        flows = dict(self.flows)
        flows[name] = flow
        return replace(self, flows=flows)

    def dt_bounds_s(self) -> tuple[float, float]:
        """Attainable [min, max] of the twin-modeling latency, in seconds."""
        return self._bounds_s(TWIN_FLOWS)

    def service_bounds_s(self, single_v2c: bool = False) -> tuple[float, float]:
        """Attainable [min, max] of the route-service latency, in seconds."""
        return self._bounds_s(_service_flows(single_v2c))

    def _bounds_s(self, flows: tuple[str, ...]) -> tuple[float, float]:
        lo = sum(self.flows[f].min_ms for f in flows)
        hi = sum(self.flows[f].max_ms for f in flows)
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
# block are held as one float array of at most 4 * SAMPLE_BLOCK values, taken
# from the stream's numpy twin in one call. Keep every temporary of a block
# under 128 KB (4 * 1024 doubles = 32 KB): glibc serves larger allocations
# with mmap when MALLOC_MMAP_THRESHOLD_ is 131072, as in the benchmark, and
# each call then page-faults its fresh pages. Blocks of 8192 made the
# Monte-Carlo 1.5x to 2.4x slower (2-core VM, CPython 3.11, numpy 2.4).
SAMPLE_BLOCK = 1024

# Most samples one collect_latency_samples call takes: 10x the `twinnav kpi`
# default. The five output arrays hold 40 MB at the cap.
MAX_SAMPLES = 1_000_000


def _draw_block(
    flow: FlowLatency, gen: np.random.RandomState | None, rows: int, per_row: int
) -> np.ndarray:
    """(rows, per_row) milliseconds from the next rows * per_row uniforms of
    `gen`, a numpy RandomState that stands in for the flow's stream, row by
    row. A pinned flow draws nothing, as `sample_ms`, and takes gen=None."""
    if flow.min_ms == flow.max_ms:
        return np.full((rows, per_row), flow.min_ms, dtype=float)
    u = gen.random_sample(rows * per_row)
    return flow.ms_from_uniform(u).reshape(rows, per_row)


def _numpy_twin(rng: random.Random) -> np.random.RandomState:
    """A numpy RandomState whose MT19937 is in `rng`'s state: its
    `random_sample` yields the values `rng.random()` would, in order."""
    from numpy.random import MT19937, RandomState

    internal = rng.getstate()[1]  # 624 key words, then the position
    gen = RandomState(MT19937(0))
    gen.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    return gen


def _hand_back(gen: np.random.RandomState, rng: random.Random) -> None:
    """Put `gen`'s MT19937 key and position into `rng`, keeping its version
    and `gauss_next`."""
    version, _, gauss_next = rng.getstate()
    _, key, pos = gen.get_state()[:3]
    rng.setstate((version, (*key.tolist(), pos), gauss_next))


def sample_dt_latency(model: LatencyModel, streams: FlowStreams) -> float:
    """One draw of the twin-modeling latency (detection plus RSU-to-cloud leg),
    in seconds."""
    return _sample_s(model, streams, TWIN_FLOWS)


def sample_service_latency(
    model: LatencyModel, streams: FlowStreams, single_v2c: bool = False
) -> float:
    """One draw of the route-service latency, in seconds."""
    return _sample_s(model, streams, _service_flows(single_v2c))


def _sample_s(model: LatencyModel, streams: FlowStreams, flows: tuple[str, ...]) -> float:
    """One draw of each flow in turn, added up in that order, in seconds. The
    sum starts at -0.0, as -0.0 + x is x for every float x, -0.0 included."""
    ms = sum((model.flows[f].sample_ms(streams.rng(f)) for f in flows), -0.0)
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
    """Bernoulli packet delivery; `pdr` is in [0, 1], as `LatencyModel` checks."""
    return rng.random() < pdr


def collect_latency_samples(
    model: LatencyModel, streams: FlowStreams, n_samples: int
) -> dict[str, np.ndarray]:
    """Monte-Carlo draws (seconds) for the KPI report: the two E2E flows, the
    twin-modeling total, and the service total in both V2C counting modes,
    each a float array of n_samples values. Takes 1 to MAX_SAMPLES samples."""
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ContractError(f"n_samples must be within [1, {MAX_SAMPLES}], got {n_samples}")
    # A series takes a flow's next column each time it lists the flow, and
    # adds its columns in the listed order from -0.0, as `_sample_s` does.
    draws = Counter(f for flows in KPI_SERIES.values() for f in flows)
    gens = {
        f: _numpy_twin(streams.rng(f))
        for f in draws if model.flows[f].min_ms != model.flows[f].max_ms
    }
    out = {series: np.empty(n_samples) for series in KPI_SERIES}
    for start in range(0, n_samples, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, n_samples - start)
        columns = {
            f: iter(_draw_block(model.flows[f], gens.get(f), rows, k).T)
            for f, k in draws.items()
        }
        for series, flows in KPI_SERIES.items():
            total = sum((next(columns[f]) for f in flows), -0.0)
            np.divide(total, 1000.0, out=out[series][start:start + rows])
    for f, gen in gens.items():
        _hand_back(gen, streams.rng(f))
    return out


@dataclass(frozen=True)
class KpiBudget:
    ssms_e2e_max_s: float = 0.010
    info_e2e_max_s: float = 0.100
    ssms_reliability_min: float = 0.95


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

        # The row's fields are the header's columns, in order.
        lines = [self.CSV_HEADER]
        lines += [",".join(fmt(v) for v in astuple(r)) for r in self.rows]
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


# Largest sample magnitude, in seconds, that kpi_report and exact_sum take:
# exact_sum's grid offset 1.5 * 2**52 * g stays finite below 2**997 (about
# 1.3e300). The Monte-Carlo's samples stay at or below 6 * MAX_FLOW_MS ms.
MAX_SAMPLE_S = 1e300

# Values exact_sum takes at a time: 8192 doubles are 64 KB, so no temporary
# passes the 128 KB mmap threshold that SAMPLE_BLOCK's comment explains.
SUM_CHUNK = 8192


def exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of a one-dimensional float64 array: equal,
    bit for bit, to `math.fsum(x.tolist())`, for finite values within
    +-MAX_SAMPLE_S; any other value raises ContractError.

    Each chunk is split into parts on ever finer grids (Rump, Ogita and
    Oishi's error-free extraction). With every |r| <= 2**26 * g, adding and
    then subtracting 1.5 * 2**52 * g rounds r to a multiple q of g, and r - q
    is exact. The chunk's q values add up exactly, as every partial sum is an
    integer multiple of g below 2**53 * g; the remainders, at most g / 2 each,
    go on to the grid g * 2**-26, which is as fine as 2**-1074 takes them.
    `math.fsum` of the part sums, which add up to the exact total, rounds it
    once."""
    parts = []
    q = np.empty(SUM_CHUNK)
    r = np.empty(SUM_CHUNK)
    for start in range(0, x.size, SUM_CHUNK):
        chunk = x[start:start + SUM_CHUNK]
        big = max(float(chunk.max()), -float(chunk.min()))
        if not big <= MAX_SAMPLE_S:  # False for NaN too
            raise ContractError(
                f"values must be finite and within +-{MAX_SAMPLE_S:g}, got {big}")
        if big == 0.0:
            continue
        k = math.frexp(big)[1] - 26  # |chunk| < 2**26 * 2**k
        rest, qs, rs = chunk, q[:chunk.size], r[:chunk.size]
        while True:
            offset = math.ldexp(1.5, 52 + max(k, -1074))
            np.add(rest, offset, out=qs)
            np.subtract(qs, offset, out=qs)
            parts.append(float(qs.sum()))
            np.subtract(rest, qs, out=rs)
            if not rs.any():
                break
            rest, k = rs, k - 26
    if not parts:  # no value, or only zeros: fsum decides the zero's sign
        return math.fsum(x)
    return math.fsum(parts)


def _stats_row(
    metric: str,
    samples: Sequence[float] | np.ndarray,
    budget_s: float | None,
) -> tuple[KpiRow, float, float]:
    """The flow's row, plus its min and max in seconds."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ContractError(f"no samples for flow {metric!r}")
    try:
        total = exact_sum(x)
    except ContractError as e:
        raise ContractError(f"samples of flow {metric!r}: {e}") from None
    # The first minimum and maximum, as `min` and `max` of a list pick among
    # equal values (0.0 and -0.0).
    mn, mx = float(x[x.argmin()]), float(x[x.argmax()])
    checked = {} if budget_s is None else {
        "limit": budget_s * 1000.0, "observed": mx * 1000.0, "passed": mx <= budget_s,
    }
    row = KpiRow(
        metric=metric,
        n=x.size,
        min_ms=mn * 1000.0,
        max_ms=mx * 1000.0,
        mean_ms=total / x.size * 1000.0,
        **checked,
    )
    return row, mn, mx


def kpi_report(
    samples: Mapping[str, Sequence[float] | np.ndarray],
    budget: KpiBudget,
    *,
    pdr_ssms: float | None = None,
    pdr_info: float | None = None,
    deadline_v_free_mps: float | None = None,
) -> KpiReport:
    """Summarize latency draws (seconds; arrays or sequences of floats)
    against the budgets. Each series' mean is exact (`exact_sum`); a series
    that is empty, or has a value that is not finite or is past
    +-MAX_SAMPLE_S, raises ContractError.

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
    deadline_s = (None if deadline_v_free_mps is None
                  else service_deadline_s(deadline_v_free_mps))
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
