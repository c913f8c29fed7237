import math
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twinnav import comms
from twinnav.comms import (
    FLOW_NAMES,
    MAX_FLOW_MS,
    MAX_SAMPLE_S,
    MAX_SAMPLES,
    SAMPLE_BLOCK,
    SUM_CHUNK,
    FlowLatency,
    FlowStreams,
    KpiBudget,
    KpiRow,
    LatencyModel,
    check_deadline,
    collect_latency_samples,
    deliver,
    exact_sum,
    kpi_report,
    sample_dt_latency,
    sample_service_latency,
    service_deadline_s,
)
from twinnav.errors import ConfigError, ContractError

# Degenerate (point-mass) models pinned at the published per-flow bounds. The
# route_load row uses the smaller of its two printed bounds in both cases.
PIN_MAX = {
    "rsu_detect": 153.41, "i2c": 1.74, "v2c": 42.13, "cloud_monitor": 56.29,
    "cloud_plan": 201.07, "localization": 10.13, "route_load": 500.97,
}
PIN_MIN = {
    "rsu_detect": 70.01, "i2c": 1.10, "v2c": 20.16, "cloud_monitor": 42.72,
    "cloud_plan": 173.27, "localization": 2.56, "route_load": 500.97,
}


def pinned(values):
    return LatencyModel(flows={k: FlowLatency(v, v) for k, v in values.items()})


def zero_model():
    return pinned({k: 0.0 for k in PIN_MAX})


def test_dt_latency_pinned_totals():
    s = FlowStreams(0)
    assert sample_dt_latency(pinned(PIN_MAX), s) == pytest.approx(0.15515, abs=1e-5)
    assert sample_dt_latency(zero_model(), s) == 0.0
    fixed = pinned({**PIN_MAX, "rsu_detect": 100.0, "i2c": 2.0})
    assert sample_dt_latency(fixed, s) == pytest.approx(0.102, abs=1e-9)


def test_service_latency_pinned_totals():
    s = FlowStreams(0)
    assert sample_service_latency(pinned(PIN_MAX), s, single_v2c=True) == pytest.approx(
        0.81059, abs=1e-5
    )
    # One more independent v2c leg on top of the single-leg total.
    assert sample_service_latency(pinned(PIN_MAX), s) == pytest.approx(
        0.85272, abs=1e-5
    )
    assert sample_service_latency(pinned(PIN_MIN), s) == pytest.approx(
        0.75984, abs=1e-5
    )
    assert sample_service_latency(zero_model(), s) == 0.0


def test_samples_stay_within_bounds():
    model = LatencyModel()
    s = FlowStreams(123)
    dt_lo, dt_hi = model.dt_bounds_s()
    svc_lo, svc_hi = model.service_bounds_s()
    for _ in range(2000):
        assert dt_lo <= sample_dt_latency(model, s) <= dt_hi
        assert svc_lo <= sample_service_latency(model, s) <= svc_hi
    lo1, hi1 = model.service_bounds_s(single_v2c=True)
    for _ in range(500):
        assert lo1 <= sample_service_latency(model, s, single_v2c=True) <= hi1


def test_interval_separation_holds_for_default_model():
    model = LatencyModel()
    assert model.dt_bounds_s()[1] == pytest.approx(0.15515, abs=1e-5)
    assert model.service_bounds_s()[0] == pytest.approx(0.75984, abs=1e-5)
    assert model.dt_bounds_s()[1] < model.service_bounds_s()[0]


def test_check_deadline():
    assert check_deadline(0.81059, 5.556)
    assert not check_deadline(0.95, 5.556)
    assert check_deadline(0.0, 1.0)
    assert service_deadline_s(20 / 3.6) == pytest.approx(0.91111, abs=1e-5)
    with pytest.raises(ContractError, match="v_free must be > 0"):
        service_deadline_s(0.0)


def test_check_deadline_monotone():
    rng = random.Random(4)
    for _ in range(200):
        v = rng.uniform(0.5, 30)
        t = rng.uniform(0, 3)
        if check_deadline(t, v):
            assert check_deadline(t * rng.random(), v)


def test_deliver_degenerate_probabilities():
    rng = random.Random(1)
    assert all(deliver(1.0, rng) for _ in range(1000))
    assert not any(deliver(0.0, rng) for _ in range(1000))


def test_deliver_empirical_rate():
    rng = random.Random(2024)
    n = 100_000
    hits = sum(deliver(0.9953, rng) for _ in range(n))
    assert hits / n == pytest.approx(0.9953, abs=0.002)


def test_seeded_streams_are_reproducible_and_independent():
    a = FlowStreams(99)
    b = FlowStreams(99)
    model = LatencyModel()
    seq_a = [sample_service_latency(model, a) for _ in range(50)]
    seq_b = [sample_service_latency(model, b) for _ in range(50)]
    assert seq_a == seq_b
    c = FlowStreams(100)
    assert [sample_service_latency(model, c) for _ in range(50)] != seq_a


def test_triangular_flow_matches_requested_mean():
    flow = FlowLatency(10.0, 20.0, dist="triangular", mean_ms=14.0)
    rng = random.Random(5)
    xs = [flow.sample_ms(rng) for _ in range(40_000)]
    assert sum(xs) / len(xs) == pytest.approx(14.0, abs=0.1)
    assert all(10.0 <= x <= 20.0 for x in xs)


def test_triangular_flow_rejects_unreachable_mean():
    with pytest.raises(ConfigError):
        FlowLatency(10.0, 20.0, dist="triangular", mean_ms=19.0)
    with pytest.raises(ConfigError):
        FlowLatency(10.0, 20.0, dist="triangular")


def test_flow_latency_validation():
    with pytest.raises(ConfigError):
        FlowLatency(5.0, 1.0)
    with pytest.raises(ConfigError):
        FlowLatency(-1.0, 1.0)
    FlowLatency(MAX_FLOW_MS, MAX_FLOW_MS)
    with pytest.raises(ConfigError):
        FlowLatency(1.0, MAX_FLOW_MS * 1.001)
    with pytest.raises(ConfigError):
        FlowLatency(1e308, 1e308)  # sums of such flows overflow to inf
    with pytest.raises(ConfigError):
        FlowLatency(1.0, 2.0, dist="gaussian")
    with pytest.raises(ConfigError):
        LatencyModel(pdr_ssms=1.2)
    with pytest.raises(ConfigError):
        LatencyModel(pdr_info=-0.1)
    with pytest.raises(ConfigError):
        LatencyModel(flows={"i2c": FlowLatency(0, 1)})
    with pytest.raises(ConfigError, match=r"unknown flows: \['warp'\]"):
        LatencyModel(flows=dict(LatencyModel().flows, warp=FlowLatency(0, 1)))


def test_kpi_report_budgets():
    model = LatencyModel()
    streams = FlowStreams(0)
    samples = collect_latency_samples(model, streams, 2000)
    report = kpi_report(
        samples,
        KpiBudget(),
        pdr_ssms=model.pdr_ssms,
        deadline_v_free_mps=20 / 3.6,
    )
    assert report.row("ssms_e2e").passed  # max 1.74 ms within 10 ms
    assert report.row("info_e2e").passed  # max 42.13 ms within 100 ms
    assert report.row("service_total").passed  # within the 911.11 ms deadline
    assert report.row("ssms_reliability").passed  # 0.9953 > 0.95
    assert report.row("twin_before_service").passed
    assert report.all_passed
    with pytest.raises(KeyError):
        report.row("nope")
    csv = report.to_csv()
    assert csv.splitlines()[0] == "metric,n,min_ms,max_ms,mean_ms,limit,observed,pass"
    assert report.render_text()


def test_kpi_report_flags_budget_violation():
    model = LatencyModel().with_flow("v2c", FlowLatency(150.0, 150.0))
    samples = collect_latency_samples(model, FlowStreams(0), 500)
    report = kpi_report(samples, KpiBudget())
    assert report.row("info_e2e").passed is False
    assert not report.all_passed


def test_kpi_report_zero_latency_passes_everything():
    samples = collect_latency_samples(zero_model(), FlowStreams(0), 200)
    report = kpi_report(
        samples, KpiBudget(), pdr_ssms=1.0, deadline_v_free_mps=20 / 3.6
    )
    latency_rows = [r for r in report.rows if r.metric != "twin_before_service"]
    assert all(r.passed for r in latency_rows if r.passed is not None)


def test_kpi_report_deadline_fail_with_slow_v2c():
    model = LatencyModel().with_flow("v2c", FlowLatency(500.0, 500.0))
    samples = collect_latency_samples(model, FlowStreams(0), 200)
    report = kpi_report(samples, KpiBudget(), deadline_v_free_mps=20 / 3.6)
    assert report.row("service_total").passed is False  # misses 911.11 ms
    assert report.row("info_e2e").passed is False


def test_kpi_report_rejects_empty_samples():
    with pytest.raises(ContractError):
        kpi_report({}, KpiBudget())
    with pytest.raises(ContractError):
        kpi_report({"ssms_e2e": []}, KpiBudget())


# ------------------------------------------- block sampling vs per-draw sampling


def per_draw_samples(model, streams, n_samples):
    """The per-draw KPI sampler, each series' flows spelled out by hand: one
    value per `random()` call, added up and appended in the order the block
    sampler must reproduce."""
    def ms(name):
        return model.flows[name].sample_ms(streams.rng(name))

    out = {key: [] for key in ("ssms_e2e", "info_e2e", "twin_total", "service_total",
                               "service_total_single")}
    for _ in range(n_samples):
        out["ssms_e2e"].append(ms("i2c") / 1000.0)
        out["info_e2e"].append(ms("v2c") / 1000.0)
        out["twin_total"].append((ms("rsu_detect") + ms("i2c")) / 1000.0)
        legs = ms("localization") + ms("route_load") + ms("cloud_monitor") + ms("cloud_plan")
        out["service_total"].append((legs + ms("v2c") + ms("v2c")) / 1000.0)
        legs = ms("localization") + ms("route_load") + ms("cloud_monitor") + ms("cloud_plan")
        out["service_total_single"].append((legs + ms("v2c")) / 1000.0)
    return out


@st.composite
def flows(draw):
    """A uniform, triangular (attainable mean, mode possibly at a bound) or
    pinned flow."""
    lo = draw(st.floats(0.0, 600.0))
    kind = draw(st.sampled_from(["uniform", "triangular", "pinned"]))
    if kind == "pinned":
        return FlowLatency(lo, lo)
    hi = lo + draw(st.floats(1e-3, 300.0))
    assume(hi > lo)
    if kind == "uniform":
        return FlowLatency(lo, hi)
    frac = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    mean = (lo + hi + lo + frac * (hi - lo)) / 3.0
    try:
        return FlowLatency(lo, hi, dist="triangular", mean_ms=mean)
    except ConfigError:  # the mode rounded just outside [lo, hi]
        assume(False)


SEEDS = st.integers(0, 2**64) | st.text(max_size=5)
SAMPLE_COUNTS = st.sampled_from(
    [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 1]
) | st.integers(1, 3000)


def as_lists(samples):
    """The Monte-Carlo's series as lists of Python floats."""
    return {key: series.tolist() for key, series in samples.items()}


def stream_states(streams):
    return [streams.rng(name).getstate() for name in FLOW_NAMES + ("pdr_ssms", "pdr_info")]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(FLOW_NAMES), flows()), SEEDS, SAMPLE_COUNTS)
def test_block_samples_equal_per_draw_samples(overrides, seed, n):
    model = LatencyModel(flows={**LatencyModel().flows, **overrides})
    block, reference = FlowStreams(seed), FlowStreams(seed)
    assert as_lists(collect_latency_samples(model, block, n)) == per_draw_samples(
        model, reference, n)
    assert stream_states(block) == stream_states(reference)
    assert sample_service_latency(model, block) == sample_service_latency(model, reference)


# Per-draw calls made before the hand-over: every position in the 624-word
# buffer, with the twist boundaries named.
SKIPS = st.sampled_from([0, 1, 622, 623, 624, 625, 1247, 1248, 1249]) | st.integers(0, 1300)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.sampled_from(FLOW_NAMES), flows()),
    SEEDS,
    st.lists(SKIPS, min_size=len(FLOW_NAMES), max_size=len(FLOW_NAMES)),
    st.booleans(),
    SAMPLE_COUNTS,
)
def test_block_samples_equal_per_draw_samples_from_any_buffer_position(
    overrides, seed, skips, gauss, n
):
    """Streams drawn from before the Monte-Carlo: it takes over at any of the
    624 buffer positions, keeps a cached `gauss_next`, and hands back states
    that draw on as the per-draw streams do."""
    model = LatencyModel(flows={**LatencyModel().flows, **overrides})
    block, reference = FlowStreams(seed), FlowStreams(seed)
    for streams in (block, reference):
        for name, skip in zip(FLOW_NAMES, skips):
            rng = streams.rng(name)
            for _ in range(skip):
                rng.random()
            if gauss:
                rng.gauss(0.0, 1.0)  # leaves the pair's second value cached
    assert as_lists(collect_latency_samples(model, block, n)) == per_draw_samples(
        model, reference, n)
    assert stream_states(block) == stream_states(reference)
    for name in FLOW_NAMES:
        got, ref = block.rng(name), reference.rng(name)
        assert [got.random() for _ in range(700)] == [ref.random() for _ in range(700)]
        assert got.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)


@pytest.mark.parametrize("n", [0, -1, MAX_SAMPLES + 1])
def test_collect_latency_samples_rejects_counts_outside_the_cap(n):
    with pytest.raises(ContractError):
        collect_latency_samples(LatencyModel(), FlowStreams(0), n)


def test_collect_latency_samples_accepts_the_cap(monkeypatch):
    # One series keeps the output to one array of MAX_SAMPLES floats.
    monkeypatch.setattr(comms, "KPI_SERIES", {"ssms_e2e": ("i2c",)})
    samples = collect_latency_samples(LatencyModel(), FlowStreams(0), MAX_SAMPLES)
    assert len(samples["ssms_e2e"]) == MAX_SAMPLES


def test_numpy_random_stays_unloaded_outside_the_kpi_monte_carlo():
    """The engine, sweeps, CLI and route service never load numpy.random;
    only collect_latency_samples does."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    demo = os.path.join(os.path.dirname(src), "scenarios", "demo.json")
    script = f"""
import sys
import numpy
eager = "numpy.random" in sys.modules
import twinnav.cli, twinnav.service, twinnav.sim, twinnav.sweep
from twinnav.scenario import load_scenario
twinnav.sim.Engine(load_scenario({demo!r})).run()
after_run = "numpy.random" in sys.modules
from twinnav.comms import FlowStreams, LatencyModel, collect_latency_samples
collect_latency_samples(LatencyModel(), FlowStreams(0), 10)
print(eager, after_run, "numpy.random" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    eager, after_run, after_kpi = done.stdout.split()
    assert after_run == eager  # numpy 1.x loads numpy.random with numpy itself
    assert after_kpi == "True"


@settings(max_examples=100, deadline=None)
@given(flows(), st.integers(0, 2**32))
def test_sample_ms_equals_the_random_method(flow, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    got = [flow.sample_ms(rng) for _ in range(20)]
    if flow.min_ms == flow.max_ms:
        assert got == [flow.min_ms] * 20
    elif flow.dist == "triangular":
        mode = 3.0 * flow.mean_ms - flow.min_ms - flow.max_ms
        assert got == [ref.triangular(flow.min_ms, flow.max_ms, mode) for _ in range(20)]
    else:
        assert got == [ref.uniform(flow.min_ms, flow.max_ms) for _ in range(20)]
    assert all(type(x) is float for x in got)
    assert rng.getstate() == ref.getstate()


# ------------------------------------------------- exact sum and the KPI report


def bits(x):
    return np.float64(x).tobytes()


SUM_SIZES = st.sampled_from(
    [0, 1, 2, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1, 3 * SUM_CHUNK + 1]
) | st.integers(0, 3 * SUM_CHUNK + 1)
SUM_VALUES = st.floats(-MAX_SAMPLE_S, MAX_SAMPLE_S) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX_SAMPLE_S, -MAX_SAMPLE_S]
)


@st.composite
def sum_arrays(draw):
    """Up to three chunks and one value: a few drawn values (subnormals,
    signed zeros and the range limits among them), repeated, maybe beside
    their negatives so that large values cancel, and a share of values whose
    exponents span the accepted range."""
    n = draw(SUM_SIZES)
    values = draw(st.lists(SUM_VALUES, min_size=1, max_size=6))
    if draw(st.booleans()):
        values += [-v for v in values]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(np.array(values), n)
    wide = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    k = int(wide.sum())
    x[wide] = np.clip(np.ldexp(rng.uniform(-1.0, 1.0, k), rng.integers(-1100, 998, k)),
                      -MAX_SAMPLE_S, MAX_SAMPLE_S)
    return x


@settings(max_examples=200, deadline=None)
@given(sum_arrays())
def test_exact_sum_equals_fsum(x):
    assert bits(exact_sum(x)) == bits(math.fsum(x.tolist()))


@pytest.mark.parametrize("values", [
    [1e290, -1e290, 1e-300],
    [MAX_SAMPLE_S, -MAX_SAMPLE_S, 5e-324],
    [1.0, 2.0**-53, 2.0**-106],  # a tie that the last bit breaks
    [5e-324] * (SUM_CHUNK + 1),
    [-0.0, -0.0],
    [0.0, -0.0],
    [],
], ids=["cancel", "limits", "tie", "subnormals", "negative zeros", "mixed zeros", "empty"])
def test_exact_sum_equals_fsum_on_hard_cases(values):
    x = np.array(values, dtype=float)
    assert bits(exact_sum(x)) == bits(math.fsum(values))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 math.nextafter(MAX_SAMPLE_S, math.inf), -1e301])
def test_samples_past_the_range_are_rejected(bad):
    x = np.full(SUM_CHUNK + 5, 0.25)
    x[SUM_CHUNK + 2] = bad
    with pytest.raises(ContractError):
        exact_sum(x)
    for samples in (x, x.tolist()):
        with pytest.raises(ContractError, match="ssms_e2e"):
            kpi_report({"ssms_e2e": samples}, KpiBudget())


def test_kpi_report_takes_samples_at_the_range_limits():
    row = kpi_report({"x": [MAX_SAMPLE_S, -MAX_SAMPLE_S]}, KpiBudget()).row("x")
    assert (row.min_ms, row.max_ms, row.mean_ms) == (-1e303, 1e303, 0.0)


def list_stats_row(metric, samples, budget_s):
    """`comms._stats_row` as it was when samples were lists: the reference."""
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


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(FLOW_NAMES), flows()), SEEDS, SAMPLE_COUNTS)
def test_kpi_report_on_arrays_equals_the_list_report(overrides, seed, n):
    model = LatencyModel(flows={**LatencyModel().flows, **overrides})
    samples = collect_latency_samples(model, FlowStreams(seed), n)
    kwargs = dict(pdr_ssms=model.pdr_ssms, pdr_info=model.pdr_info,
                  deadline_v_free_mps=20 / 3.6)
    got = kpi_report(samples, KpiBudget(), **kwargs)
    with mock.patch.object(comms, "_stats_row", list_stats_row):
        ref = kpi_report(as_lists(samples), KpiBudget(), **kwargs)
    assert got.rows == ref.rows
    assert got.to_csv() == ref.to_csv()
    for r in got.rows:
        assert all(type(v) in (int, float, bool, str, type(None))
                   for v in (r.n, r.min_ms, r.max_ms, r.mean_ms, r.observed, r.passed))
