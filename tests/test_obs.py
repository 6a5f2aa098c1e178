"""The observability layer: metric primitives, the schema-checked
event stream, the Observer facade, and its integration with the
engine and the algorithms."""

import json

import pytest

from repro.core.htee import HTEEAlgorithm, probe_ladder
from repro.core.mine import MinEAlgorithm
from repro.core.scheduler import current_observer, engine_options
from repro.obs import (
    EVENT_SCHEMA,
    Counter,
    EventStream,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observer,
    merge_summaries,
    render_events,
    render_metrics,
)


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(7)
        assert g.value == 7


class TestHistogram:
    def test_buckets_and_overflow(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)
        assert h.mean == pytest.approx(55.5 / 3)

    def test_boundary_is_inclusive(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc()
        assert reg.counter("a").value == 2

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", (1.0,)).observe(0.2)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"] == {"c": 3.0}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 5)):
            reg.counter("c").inc(n)
            reg.gauge("g").set(n)
            reg.histogram("h", (1.0, 10.0)).observe(n)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 7
        assert a.gauge("g").value == 5  # last write wins
        assert a.histogram("h").count == 2

    def test_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", (1.0,)).observe(0.5)
        b.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())


class TestMergeSummaries:
    def test_merges_bare_snapshots(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        merged = merge_summaries([reg.snapshot(), reg.snapshot()])
        assert merged["counters"]["c"] == 4

    def test_merges_observer_summaries(self):
        o = Observer()
        o.emit(1.0, "probe_window", algorithm="HTEE", cc=3, throughput_bps=1e9,
               joules=10.0, score=5.0)
        merged = merge_summaries([o.summary(), o.summary()])
        assert merged["metrics"]["counters"]["algo.probe_windows"] == 2
        assert merged["event_counts"] == {"probe_window": 2}
        assert merged["events_total"] == 2

    def test_empty_iterable(self):
        assert merge_summaries([]) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


# ----------------------------------------------------------------------
# event stream
# ----------------------------------------------------------------------


class TestEventStream:
    def test_emit_assigns_monotone_seq(self):
        stream = EventStream()
        stream.emit(1.0, "macro_step", steps=5, span_s=0.5)
        stream.emit(2.0, "fixed_dt_fallback", steps=3)
        assert [e.seq for e in stream] == [0, 1]
        stream.validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventStream().emit(0.0, "nope")

    def test_missing_detail_keys_rejected(self):
        with pytest.raises(ValueError, match="missing required detail keys"):
            EventStream().emit(0.0, "probe_window", algorithm="HTEE")

    def test_extra_detail_keys_allowed(self):
        stream = EventStream()
        stream.emit(0.0, "fixed_dt_fallback", steps=1, note="forward-compat")
        stream.validate()

    def test_filter_by_kind_and_since(self):
        stream = EventStream()
        stream.emit(1.0, "macro_step", steps=1, span_s=0.1)
        stream.emit(2.0, "fixed_dt_fallback", steps=1)
        stream.emit(3.0, "macro_step", steps=2, span_s=0.2)
        assert len(stream.filter(kind="macro_step")) == 2
        assert len(stream.filter(since=2.5)) == 1
        assert len(stream.filter(kind="macro_step", since=2.5)) == 1

    def test_kinds_counts(self):
        stream = EventStream()
        stream.emit(0.0, "fixed_dt_fallback", steps=1)
        stream.emit(0.0, "fixed_dt_fallback", steps=2)
        assert stream.kinds() == {"fixed_dt_fallback": 2}

    def test_roundtrip_dicts(self):
        stream = EventStream()
        stream.emit(1.5, "allocation_change", allocation={"c0": 2})
        rebuilt = EventStream.from_dicts(stream.to_dicts())
        rebuilt.validate()
        assert rebuilt[0].detail["allocation"] == {"c0": 2}

    def test_save_jsonl(self, tmp_path):
        stream = EventStream()
        stream.emit(1.0, "macro_step", steps=4, span_s=0.4)
        path = stream.save_jsonl(tmp_path / "events.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "macro_step"

    def test_extend_resequences(self):
        a, b = EventStream(), EventStream()
        a.emit(1.0, "fixed_dt_fallback", steps=1)
        b.emit(2.0, "fixed_dt_fallback", steps=2)
        a.extend(b)
        assert [e.seq for e in a] == [0, 1]
        a.validate()

    def test_schema_covers_all_required_kinds(self):
        expected = {
            "probe_window", "allocation_change", "rearrange_channels",
            "macro_step", "fixed_dt_fallback", "channel_reassigned",
            "channel_failed", "server_failed", "server_recovered",
        }
        assert expected <= set(EVENT_SCHEMA)


# ----------------------------------------------------------------------
# observer facade
# ----------------------------------------------------------------------


class TestObserver:
    def test_probe_window_updates_all_three_instrument_types(self):
        o = Observer()
        o.emit(5.0, "probe_window", algorithm="HTEE", cc=3, throughput_bps=1e9,
               joules=20.0, score=4.0)
        snap = o.metrics.snapshot()
        assert snap["counters"]["algo.probe_windows"] == 1
        assert snap["gauges"]["algo.last_probe_cc"] == 3
        assert snap["histograms"]["algo.probe_score"]["count"] == 1
        assert o.events.kinds() == {"probe_window": 1}

    def test_engine_event_counts_and_forwards(self):
        o = Observer()
        o.emit(1.0, "channel_opened", chunk="c0")
        o.emit(2.0, "channel_reassigned", from_chunk="a", to_chunk="b")
        o.emit(3.0, "file_completed", chunk="c0", count=4)
        snap = o.metrics.snapshot()
        assert snap["counters"]["engine.events.channel_opened"] == 1
        assert snap["counters"]["engine.work_steals"] == 1
        assert snap["counters"]["engine.files_completed"] == 4
        # only structural kinds reach the stream
        assert o.events.kinds() == {"channel_reassigned": 1}

    def test_summary_merge_roundtrip(self):
        a, b = Observer(), Observer()
        a.emit(1.0, "macro_step", steps=10, span_s=1.0)
        b.emit(2.0, "macro_step", steps=20, span_s=2.0)
        a.merge_summary(b.summary())
        assert a.metrics.counter("engine.macro_stepped_dts").value == 30

    def test_renderers_smoke(self):
        o = Observer()
        o.emit(5.0, "probe_window", algorithm="HTEE", cc=3, throughput_bps=1e9,
               joules=20.0, score=4.0)
        o.emit(6.0, "allocation_change", allocation={"c0": 2, "c1": 1})
        assert "probe_window" in render_events(o.events)
        assert "(no events)" == render_events(Observer().events)
        text = render_metrics(o.summary())
        assert "algo.probe_windows" in text
        assert "events_total: 2" in text
        assert render_metrics({"metrics": {}}) == "(no metrics)"


# ----------------------------------------------------------------------
# golden per-kind output: exact render line and metric effects
# ----------------------------------------------------------------------


def _emit_every_kind(o: Observer) -> None:
    """One event of every schema kind, then every counter-only hook,
    with fixed detail."""
    o.emit(1.0, "probe_window", algorithm="HTEE", cc=3, throughput_bps=1.25e8,
           joules=42.5, score=0.5)
    o.emit(2.0, "allocation_change", allocation={"large": 3, "small": 1})
    o.emit(3.0, "rearrange_channels", algorithm="SLAEE", extra_large=2)
    o.emit(4.0, "macro_step", steps=12, span_s=1.2)
    o.emit(5.0, "fixed_dt_fallback", steps=7)
    o.emit(6.0, "channel_reassigned", from_chunk="small", to_chunk="large")
    o.emit(7.0, "channel_failed", chunk="large", restart_file=True)
    o.emit(8.0, "server_failed", side="src", index=1, downtime=30.0,
           channels_lost=2)
    o.emit(9.0, "server_recovered", side="src", index=1)
    o.emit(10.0, "service_macro_step", steps=40, span_s=4.0, rounds=3)
    o.emit(11.0, "job_submitted", job="j0", tenant="acme", sla="gold")
    o.emit(12.0, "job_deferred", job="j0", until=600.0, reason="peak-price")
    o.emit(13.0, "job_admitted", job="j0", queue_wait_s=2.5)
    o.emit(14.0, "job_completed", job="j0", duration_s=120.0,
           energy_j=3456.7, cost_usd=0.01234)
    o.emit(15.0, "deadline_missed", job="j0", deadline=100.0, completion=134.0)
    o.emit(16.0, "shard_started", shard="s0", jobs=4)
    o.emit(17.0, "shard_completed", shard="s0", jobs=4, wall_s=0.75)
    o.emit(18.0, "job_routed", job="j1", shard="s1")
    o.emit(19.0, "work_stolen", job="j1", from_shard="s1", to_shard="s0")
    o.emit(20.0, "fault_injected", fault="link_brownout",
           detail={"scale": 0.5, "until": 90.0})
    o.emit(20.5, "fault_injected", fault="tariff_swap", detail={})
    o.emit(21.0, "slo_breach", metric="p95_slowdown", value=3.2, budget=2.0,
           burn=1.6)
    o.emit(21.5, "slo_breach", metric="p50_slowdown", value=None, budget=2.0,
           burn=float("inf"))
    o.emit(22.0, "job_placed", job="j2", path="h0>leaf0>spine0>leaf1>h1",
           policy="least-congested")
    o.emit(23.0, "bottleneck_allocated", bottleneck="spine0", capacity=1.25e9,
           flows=3, rate=1e9)
    o.emit(24.0, "path_congested", job="j2", path="h0>leaf0>spine0>leaf1>h1",
           bottleneck="spine0", demand=5e8, rate=2.5e8)
    o.emit(25.0, "allocation_cached", rounds=6, span_s=1.5)
    # engine-log kinds that are counted but not streamed
    o.emit(26.0, "channel_opened", chunk="large", src_server=0, dst_server=1)
    o.emit(27.0, "file_completed", chunk="large", count=5)
    o.emit(28.0, "chunk_drained", chunk="small")
    o.emit(29.0, "channel_closed", chunk="small")
    o.emit(30.0, "link_scaled", scale=0.5)
    # counter-only hooks; a zero count creates no counter
    o.count("service.plan_cache_hits", 3)
    o.count("service.plan_cache_misses", 0)
    o.count("topo.alloc_cache_hits", 2)
    o.count("topo.alloc_cache_misses", 1)
    o.count("topo.alloc_incremental_rounds", 0)
    o.count("chaos.jobs_readmitted", 2)
    o.count("engine.fixed_steps", 9)
    o.count("engine.fixed_steps", 0)


GOLDEN_RENDER = """\
  seq      time_s  kind                  detail
    0        1.00  probe_window          HTEE cc=3   1000.0 Mbps      42.5 J  score=0.500
    1        2.00  allocation_change     total=4 (large=3, small=1)
    2        3.00  rearrange_channels    algorithm=SLAEE, extra_large=2
    3        4.00  macro_step            12 steps (1.20 s)
    4        5.00  fixed_dt_fallback     7 fixed steps
    5        6.00  channel_reassigned    from_chunk=small, to_chunk=large
    6        7.00  channel_failed        chunk=large, restart_file=True
    7        8.00  server_failed         side=src, index=1, downtime=30.0, channels_lost=2
    8        9.00  server_recovered      side=src, index=1
    9       10.00  service_macro_step    40 steps in 3 rounds (4.00 s)
   10       11.00  job_submitted         j0 tenant=acme sla=gold
   11       12.00  job_deferred          j0 until=600s (peak-price)
   12       13.00  job_admitted          j0 waited 2.5 s
   13       14.00  job_completed         j0 in 120.0 s, 3457 J, $0.0123
   14       15.00  deadline_missed       j0 deadline=100s finished=134s
   15       16.00  shard_started         s0 with 4 jobs
   16       17.00  shard_completed       s0 4 jobs in 0.75 s wall
   17       18.00  job_routed            j1 -> s1
   18       19.00  work_stolen           j1 s1 -> s0
   19       20.00  fault_injected        link_brownout (scale=0.5, until=90.0)
   20       20.50  fault_injected        tariff_swap
   21       21.00  slo_breach            p95_slowdown 3.2 > budget 2 (burn 1.60x)
   22       21.50  slo_breach            p50_slowdown n/a > budget 2 (burn infx)
   23       22.00  job_placed            j2 -> h0>leaf0>spine0>leaf1>h1 (least-congested)
   24       23.00  bottleneck_allocated  spine0 8000.0/10000.0 Mbps across 3 flow(s)
   25       24.00  path_congested        j2 on h0>leaf0>spine0>leaf1>h1 capped at 2000.0 Mbps by spine0 (wanted 4000.0)
   26       25.00  allocation_cached     6 cached round(s) (1.50 s)
(27 events: allocation_cached=1, allocation_change=1, bottleneck_allocated=1, \
channel_failed=1, channel_reassigned=1, deadline_missed=1, fault_injected=2, \
fixed_dt_fallback=1, job_admitted=1, job_completed=1, job_deferred=1, \
job_placed=1, job_routed=1, job_submitted=1, macro_step=1, path_congested=1, \
probe_window=1, rearrange_channels=1, server_failed=1, server_recovered=1, \
service_macro_step=1, shard_completed=1, shard_started=1, slo_breach=2, \
work_stolen=1)"""

_SPAN_BOUNDS = [0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0]

GOLDEN_SUMMARY = {
    "metrics": {
        "counters": {
            "algo.probe_windows": 1.0,
            "algo.rearrange_firings": 1.0,
            "chaos.faults.link_brownout": 1.0,
            "chaos.faults.tariff_swap": 1.0,
            "chaos.faults_injected": 2.0,
            "chaos.jobs_readmitted": 2.0,
            "chaos.slo_breaches": 2.0,
            "chaos.slo_breaches.p50_slowdown": 1.0,
            "chaos.slo_breaches.p95_slowdown": 1.0,
            "engine.allocation_changes": 1.0,
            "engine.events.channel_closed": 1.0,
            "engine.events.channel_failed": 1.0,
            "engine.events.channel_opened": 1.0,
            "engine.events.channel_reassigned": 1.0,
            "engine.events.chunk_drained": 1.0,
            "engine.events.link_scaled": 1.0,
            "engine.events.server_failed": 1.0,
            "engine.events.server_recovered": 1.0,
            "engine.fallback_stretches": 1.0,
            "engine.files_completed": 5.0,
            "engine.fixed_steps": 9.0,
            "engine.macro_stepped_dts": 12.0,
            "engine.macro_steps": 1.0,
            "engine.work_steals": 1.0,
            "fleet.jobs_routed": 1.0,
            "fleet.shard_completions": 1.0,
            "fleet.shard_jobs.s1": 1.0,
            "fleet.shard_starts": 1.0,
            "fleet.work_steals": 1.0,
            "service.deadline_misses": 1.0,
            "service.deferrals.peak-price": 1.0,
            "service.jobs_admitted": 1.0,
            "service.jobs_completed": 1.0,
            "service.jobs_deferred": 1.0,
            "service.jobs_submitted": 1.0,
            "service.macro_stepped_dts": 40.0,
            "service.macro_steps": 3.0,
            "service.plan_cache_hits": 3.0,
            "topo.alloc_cache_hits": 2.0,
            "topo.alloc_cache_misses": 1.0,
            "topo.alloc_cached_stretches": 1.0,
            "topo.allocations": 1.0,
            "topo.congestion_events": 1.0,
            "topo.placements": 1.0,
            "topo.placements.least-congested": 1.0,
        },
        "gauges": {
            "algo.last_probe_cc": 3,
            "engine.last_allocation_total": 4,
            "topo.bottleneck_load.spine0": 1000000000.0,
        },
        "histograms": {
            "algo.probe_score": {
                "bounds": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0,
                           100000.0, 1000000.0],
                "counts": [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                "count": 1, "sum": 0.5,
            },
            "engine.macro_span_s": {
                "bounds": _SPAN_BOUNDS,
                "counts": [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                "count": 1, "sum": 1.2,
            },
            "fleet.shard_wall_s": {
                "bounds": _SPAN_BOUNDS,
                "counts": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                "count": 1, "sum": 0.75,
            },
            "service.macro_span_s": {
                "bounds": _SPAN_BOUNDS,
                "counts": [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                "count": 1, "sum": 4.0,
            },
            "service.queue_wait_s": {
                "bounds": [1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 14400.0,
                           43200.0, 86400.0],
                "counts": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                "count": 1, "sum": 2.5,
            },
        },
    },
    "event_counts": {
        "probe_window": 1, "allocation_change": 1, "rearrange_channels": 1,
        "macro_step": 1, "fixed_dt_fallback": 1, "channel_reassigned": 1,
        "channel_failed": 1, "server_failed": 1, "server_recovered": 1,
        "service_macro_step": 1, "job_submitted": 1, "job_deferred": 1,
        "job_admitted": 1, "job_completed": 1, "deadline_missed": 1,
        "shard_started": 1, "shard_completed": 1, "job_routed": 1,
        "work_stolen": 1, "fault_injected": 2, "slo_breach": 2,
        "job_placed": 1, "bottleneck_allocated": 1, "path_congested": 1,
        "allocation_cached": 1,
    },
    "events_total": 27,
}


class TestGoldenPerKind:
    """Every event kind's rendered line and metric effects, pinned as
    literals (json.dumps also pins key order and int/float types)."""

    def test_every_schema_kind_is_exercised(self):
        o = Observer()
        _emit_every_kind(o)
        counters = o.summary()["metrics"]["counters"]
        for kind, spec in EVENT_SCHEMA.items():
            if spec.stream:
                assert kind in o.events.kinds()
            else:
                assert set(spec.counters) <= set(counters)

    def test_render_lines(self):
        o = Observer()
        _emit_every_kind(o)
        assert render_events(o.events) == GOLDEN_RENDER

    def test_summary_snapshot(self):
        o = Observer()
        _emit_every_kind(o)
        assert json.dumps(o.summary()) == json.dumps(GOLDEN_SUMMARY)


# ----------------------------------------------------------------------
# integration: engine_options(observe=...) and instrumented algorithms
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_observe_true_installs_fresh_observer(self):
        assert current_observer() is None
        with engine_options(observe=True):
            assert isinstance(current_observer(), Observer)
        assert current_observer() is None

    def test_observe_accepts_instance(self):
        obs = Observer()
        with engine_options(observe=obs):
            assert current_observer() is obs

    def test_htee_emits_schema_valid_stream(self, small_testbed):
        """ISSUE acceptance: an observed HTEE run yields a non-empty,
        schema-checked event stream."""
        obs = Observer()
        with engine_options(observe=obs):
            HTEEAlgorithm().run(small_testbed, small_testbed.dataset(), 4)
        assert len(obs.events) > 0
        obs.events.validate()  # schema + monotone seq
        kinds = obs.events.kinds()
        assert kinds.get("probe_window", 0) >= 1
        assert kinds.get("allocation_change", 0) >= 1

    def test_probe_events_monotone_in_engine_time(self, small_testbed):
        obs = Observer()
        with engine_options(observe=obs):
            HTEEAlgorithm().run(small_testbed, small_testbed.dataset(), 6)
        probes = obs.events.filter(kind="probe_window")
        times = [e.time for e in probes]
        assert times == sorted(times)
        seqs = [e.seq for e in probes]
        assert seqs == sorted(seqs)
        # probe ladder order is reflected in the stream
        ccs = [e.detail["cc"] for e in probes]
        assert ccs == probe_ladder(6)[: len(ccs)]

    def test_one_allocation_change_per_set_allocation(self, small_testbed):
        """Every set_allocation emits exactly one allocation_change:
        HTEE applies one allocation per probe plus the final one."""
        obs = Observer()
        with engine_options(observe=obs):
            outcome = HTEEAlgorithm().run(small_testbed, small_testbed.dataset(), 6)
        probes = len(outcome.extra["probes"])
        changes = obs.events.filter(kind="allocation_change")
        assert len(changes) == probes + 1

    def test_mine_records_planned_allocation(self, small_testbed):
        obs = Observer()
        with engine_options(observe=obs):
            MinEAlgorithm().run(small_testbed, small_testbed.dataset(), 4)
        changes = obs.events.filter(kind="allocation_change")
        assert len(changes) >= 1
        assert changes[0].seq == 0  # planned allocation is the first event

    def test_step_accounting_consistent(self, small_testbed):
        obs = Observer()
        with engine_options(observe=obs):
            MinEAlgorithm().run(small_testbed, small_testbed.dataset(), 2)
        snap = obs.metrics.snapshot()
        fixed = snap["counters"].get("engine.fixed_steps", 0)
        macro = snap["counters"].get("engine.macro_stepped_dts", 0)
        assert fixed + macro > 0
        # every macro_step event's steps sum to the macro-dts counter
        event_steps = sum(
            e.detail["steps"] for e in obs.events.filter(kind="macro_step")
        )
        assert event_steps == macro

    def test_slaee_emits_probe_windows(self, small_testbed):
        from repro.core.slaee import SLAEEAlgorithm

        obs = Observer()
        with engine_options(observe=obs):
            SLAEEAlgorithm().run(
                small_testbed, small_testbed.dataset(), 4,
                sla_level=0.8, max_throughput=1e9,
            )
        obs.events.validate()
        assert len(obs.events.filter(kind="probe_window")) >= 1

    def test_disabled_by_default(self, small_testbed):
        MinEAlgorithm().run(small_testbed, small_testbed.dataset(), 2)
        assert current_observer() is None
