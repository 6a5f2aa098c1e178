"""Event-horizon fast path: numerical equivalence with fixed-dt stepping.

The fast path must be indistinguishable from the pure fixed-``dt``
stepper within the documented tolerance (DESIGN.md): bytes within
1e-6 relative, energy within 1e-3 relative, on all three paper
testbeds. These tests run both modes over identical scenarios —
full transfers, bounded horizons, failure injection, piecewise
background traffic — and compare.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro import units
from repro.core.baselines import GucAlgorithm, ProMCAlgorithm, SingleChunkAlgorithm
from repro.core.scheduler import engine_options
from repro.datasets.files import FileInfo
from repro.harness.runner import dataset_for
from repro.netsim.disk import ParallelDisk, SingleDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.engine import ChunkPlan, PiecewiseTraffic, TransferEngine
from repro.netsim.link import NetworkPath
from repro.netsim.params import TransferParams
from repro.obs import Observer
from repro.power.coefficients import CoefficientSet
from repro.power.models import FineGrainedPowerModel
from repro.testbeds.specs import ALL_TESTBEDS, Testbed

#: Documented equivalence tolerances (see DESIGN.md).
BYTES_RTOL = 1e-6
ENERGY_RTOL = 1e-3
DURATION_RTOL = 1e-9


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def paired_engines(make_engine, **kwargs):
    fast = make_engine(fast_path=True, **kwargs)
    fixed = make_engine(fast_path=False, **kwargs)
    return fast, fixed


def assert_equivalent(fast: TransferEngine, fixed: TransferEngine) -> None:
    assert rel(fast.total_bytes, fixed.total_bytes) <= BYTES_RTOL
    assert rel(fast.total_energy, fixed.total_energy) <= ENERGY_RTOL
    assert rel(fast.time, fixed.time) <= DURATION_RTOL
    assert fast.total_files == fixed.total_files


class TestPaperTestbedEquivalence:
    """Both modes agree on every paper testbed (the acceptance bar)."""

    @pytest.mark.parametrize("testbed", ALL_TESTBEDS, ids=lambda tb: tb.name)
    @pytest.mark.parametrize(
        "algorithm,level",
        [(GucAlgorithm(), 1), (SingleChunkAlgorithm(), 4), (ProMCAlgorithm(), 4)],
        ids=["GUC", "SC", "ProMC"],
    )
    def test_full_transfer_equivalence(self, testbed: Testbed, algorithm, level):
        dataset = dataset_for(testbed)
        fast = algorithm.run(testbed, dataset, level)
        with engine_options(fast_path=False):
            fixed = algorithm.run(testbed, dataset, level)
        assert rel(fast.bytes_moved, fixed.bytes_moved) <= BYTES_RTOL
        assert rel(fast.energy_joules, fixed.energy_joules) <= ENERGY_RTOL
        assert rel(fast.duration_s, fixed.duration_s) <= DURATION_RTOL
        assert fast.files_moved == fixed.files_moved


class TestScenarioEquivalence:
    """Horizons, failures and cross-traffic behave identically."""

    def _files(self, n=24, size=8 * units.MB, name="f"):
        return tuple(FileInfo(f"{name}{i}", int(size)) for i in range(n))

    def test_bounded_horizon_equivalence(self, make_small_engine):
        fast, fixed = paired_engines(make_small_engine)
        for engine in (fast, fixed):
            engine.add_chunk(ChunkPlan("c", self._files(), TransferParams(concurrency=3)))
            engine.run(1.7)   # mid-transfer horizon
            engine.run(0.05)  # sub-dt horizon still advances one step
            engine.run()      # to completion
        assert_equivalent(fast, fixed)

    def test_failure_injection_equivalence(self, make_small_engine):
        fast, fixed = paired_engines(make_small_engine)
        for engine in (fast, fixed):
            engine.add_chunk(
                ChunkPlan("c", self._files(n=40), TransferParams(concurrency=4))
            )
            engine.run(0.5)
            victim = next(c for c in engine.channels if c.busy)
            engine.fail_channel(victim, restart_file=True)
            engine.run(0.5)
            engine.fail_server("src", 0, downtime=0.7)
            engine.run()
        assert_equivalent(fast, fixed)
        assert fast.channel_failures == fixed.channel_failures == 1
        assert fast.server_failures == fixed.server_failures == 1

    def test_piecewise_traffic_keeps_fast_path(self, make_small_engine):
        profile = PiecewiseTraffic(points=((0.0, 0.0), (1.0, 6.0), (3.0, 0.0)))
        fast, fixed = paired_engines(make_small_engine, background_traffic=profile)
        for engine in (fast, fixed):
            engine.add_chunk(ChunkPlan("c", self._files(), TransferParams(concurrency=2)))
            engine.run()
        assert_equivalent(fast, fixed)
        assert fast.macro_steps > 0  # profile change points did not kill it

    def test_opaque_traffic_disables_fast_path(self, make_small_engine):
        engine = make_small_engine(background_traffic=lambda t: 0.0)
        engine.add_chunk(ChunkPlan("c", self._files(), TransferParams(concurrency=2)))
        engine.run()
        assert engine.macro_steps == 0
        assert engine.fixed_steps > 0

    def test_until_predicate_equivalence_on_event_state(self, make_small_engine):
        # Predicates watching allocation-changing events (queue drain +
        # busy set, the sequential baselines' predicate) are dt-accurate
        # under the fast path: those events bound every macro-step.
        fast, fixed = paired_engines(make_small_engine)
        for engine in (fast, fixed):
            engine.add_chunk(ChunkPlan("a", self._files(name="a"), TransferParams(concurrency=2)))
            engine.add_chunk(
                ChunkPlan("b", self._files(name="b"), TransferParams(concurrency=1)),
                open_channels=False,
            )
            state = engine.chunks["a"]

            def drained(state=state, engine=engine):
                return state.exhausted and not any(
                    c.busy for c in engine.channels_for("a")
                )

            engine.run(until=drained)
            assert drained()
        assert_equivalent(fast, fixed)

    def test_until_predicate_stops_the_loop(self, make_small_engine):
        # Fine-grained predicates still stop the run; they may overshoot
        # by at most one macro-step (documented), never miss.
        engine = make_small_engine()
        engine.add_chunk(ChunkPlan("c", self._files(), TransferParams(concurrency=2)))
        state = engine.chunks["c"]
        engine.run(until=lambda: state.files_done >= 10)
        assert state.files_done >= 10
        assert not engine.finished

    def test_trace_is_step_accurate_under_macro_steps(self, make_small_engine):
        fast, fixed = paired_engines(make_small_engine, record_trace=True)
        for engine in (fast, fixed):
            engine.add_chunk(ChunkPlan("c", self._files(), TransferParams(concurrency=1)))
            engine.run()
        assert fast.macro_steps > 0
        # same number of records, at the same (bit-exact) step times
        assert len(fast.trace) == len(fixed.trace)
        assert [r.time for r in fast.trace] == [r.time for r in fixed.trace]
        # byte-weighted totals agree even though macro records hold the
        # interval-average throughput
        dt = fast.dt
        assert rel(
            sum(r.throughput for r in fast.trace) * dt,
            sum(r.throughput for r in fixed.trace) * dt,
        ) <= BYTES_RTOL
        assert rel(
            sum(r.power for r in fast.trace) * dt,
            sum(r.power for r in fixed.trace) * dt,
        ) <= ENERGY_RTOL


class TestFastPathMechanics:
    def test_macro_steps_taken_on_stable_stretch(self, make_small_engine):
        engine = make_small_engine()
        files = (FileInfo("big", 200 * units.MB),)
        engine.add_chunk(ChunkPlan("c", files, TransferParams(concurrency=1)))
        engine.run()
        assert engine.macro_steps >= 1
        # one long file: almost everything is one macro-step
        assert engine.fixed_steps < 10

    @pytest.mark.parametrize("clock", [0.0, 1e5], ids=["t0", "t1e5"])
    def test_stable_steps_cap_is_independent_of_the_clock(self, make_small_engine, clock):
        # Only the step cap binds (one file far too large to finish), so
        # the answer is the cap, whole, whatever the clock reads. At
        # t=1e5 s a float horizon ``time + max_steps*dt`` would round up
        # past the cap; the cap is taken in whole steps, so it cannot.
        engine = make_small_engine()
        files = (FileInfo("huge", 100 * units.GB),)
        engine.add_chunk(ChunkPlan("c", files, TransferParams(concurrency=1)))
        engine.time = clock
        busy, rates = engine.prepare_step()
        caps = [engine.stable_steps(busy, rates, m) for m in (0, 1, 3, 6, 50)]
        assert caps == [0, 1, 3, 6, 50]

    def test_piecewise_traffic_profile(self):
        profile = PiecewiseTraffic(points=((0.0, 0.0), (5.0, 4.0), (9.0, 1.0)))
        assert profile(0.0) == 0.0
        assert profile(4.999) == 0.0
        assert profile(5.0) == 4.0
        assert profile(100.0) == 1.0
        assert profile.next_change(0.0) == 5.0
        assert profile.next_change(5.0) == 9.0
        assert math.isinf(profile.next_change(9.0))

    def test_piecewise_traffic_validation(self):
        with pytest.raises(ValueError):
            PiecewiseTraffic(points=((5.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            PiecewiseTraffic(points=((0.0, -1.0),))

    def test_server_recovery_bounds_macro_step(self, make_small_engine):
        fast, fixed = paired_engines(make_small_engine)
        for engine in (fast, fixed):
            files = tuple(FileInfo(f"f{i}", 40 * units.MB) for i in range(12))
            engine.add_chunk(ChunkPlan("c", files, TransferParams(concurrency=4)))
            engine.run(0.4)
            engine.fail_server("dst", 1, downtime=1.0, reopen=True)
            engine.run()
        assert_equivalent(fast, fixed)
        # the recovery actually happened in both
        assert not fast.down_servers and not fixed.down_servers


class TestEventStepInSpan:
    """A span runs through the step that holds its first event: the
    fixed stepper only re-allocates at the next step boundary. The
    events are placed exactly by setting the lone channel's pending
    control gap after the first allocation (dt = 0.1 s)."""

    CASES = {
        # case: (file size, completion time, recovery time, expected span)
        "completion-inside-step-5": (10 * units.MB, 0.45, None, 5),
        "completion-1e-9-before-step-5-ends": (10 * units.MB, 0.5 - 5e-10, None, 4),
        "recovery-inside-step-5": (100 * units.MB, None, 0.45, 5),
        "zero-size-file": (0, 0.0, None, 0),
    }

    @staticmethod
    def _engine(make_small_engine, case, *, fast_path=True):
        size, completes_at, recovers_at, _expected = TestEventStepInSpan.CASES[case]
        engine = make_small_engine(fast_path=fast_path)
        files = (FileInfo("f", size),)
        engine.add_chunk(ChunkPlan("c", files, TransferParams(concurrency=1)))
        if recovers_at is not None:
            engine.mark_server_down("dst", 1, until=recovers_at)
        busy, rates = engine.prepare_step()
        if completes_at is not None:
            (channel,) = busy
            (rate,) = rates  # aligned with busy
            channel.gap_remaining = completes_at - channel.current.remaining / rate
            assert channel.gap_remaining >= 0.0
        return engine, busy, rates

    @pytest.mark.parametrize("case", list(CASES))
    def test_stable_steps_takes_the_event_step(self, make_small_engine, case):
        engine, busy, rates = self._engine(make_small_engine, case)
        spans = [engine.stable_steps(busy, rates, m) for m in (0, 1, 2, 50)]
        assert min(spans) >= 0
        assert spans[-1] == self.CASES[case][-1]

    @pytest.mark.parametrize("case", list(CASES))
    def test_fast_run_matches_grid(self, make_small_engine, case):
        fast, _, _ = self._engine(make_small_engine, case, fast_path=True)
        fixed, _, _ = self._engine(make_small_engine, case, fast_path=False)
        fast.run()
        fixed.run()
        assert fast.finished and fixed.finished
        assert fast.time == fixed.time  # bit-equal completion time
        assert fast.total_files == fixed.total_files == 1
        assert fast.total_energy == pytest.approx(fixed.total_energy, rel=1e-9)
        assert not fast.down_servers and not fixed.down_servers
        if case == "completion-inside-step-5":
            # one macro-step of five, no trailing fixed step
            assert (fast.macro_steps, fast.fixed_steps) == (1, 0)
            assert fast.time == pytest.approx(0.5)


class TestDemandFloor:
    """``demand_floor(busy)`` bounds from below the uncapped demand of
    every non-empty subset of ``busy``, also where demand is not
    monotone in the busy set: past the congestion knee and on a
    contended disk a smaller subset demands *more*; with competing
    streams a smaller subset gets a smaller link share."""

    TESTBEDS = {
        # 4 channels x 2 streams against a knee at 2 streams
        "past-knee": (
            NetworkPath(
                bandwidth=units.gbps(1), rtt=units.ms(10), tcp_buffer=8 * units.MB,
                protocol_efficiency=0.95, congestion_knee=2, congestion_slope=0.1,
            ),
            ParallelDisk(per_accessor_rate=100 * units.MB, array_rate=800 * units.MB),
        ),
        # one spindle whose aggregate falls as 1/sqrt(accessors)
        "contended-disk": (
            NetworkPath(
                bandwidth=units.gbps(10), rtt=units.ms(10), tcp_buffer=8 * units.MB,
                protocol_efficiency=0.95, congestion_knee=64,
            ),
            SingleDisk(peak_rate=100 * units.MB, contention_alpha=0.5),
        ),
    }

    @classmethod
    def _busy_engine(cls, testbed: str, background: float, scale: float):
        path, disk = cls.TESTBEDS[testbed]
        server = ServerSpec(
            name="host", cores=8, tdp_watts=100.0, nic_rate=units.gbps(10),
            disk=disk, per_channel_rate=200 * units.MB, core_rate=400 * units.MB,
            per_file_overhead=0.0,
        )
        site = EndSystem("site", server, 2)
        engine = TransferEngine(
            path, site, site, FineGrainedPowerModel(CoefficientSet()).power, dt=0.1
        )
        files = tuple(FileInfo(f"f{i}", 50 * units.MB) for i in range(8))
        engine.add_chunk(
            ChunkPlan("c", files, TransferParams(concurrency=4, parallelism=2))
        )
        engine.set_background_streams(background)
        engine.set_link_scale(scale)
        busy, _rates = engine.prepare_step()
        assert len(busy) == 4
        return engine, busy

    @staticmethod
    def _subset_demands(engine: TransferEngine, busy) -> list[float]:
        """``demand_rate`` with only each non-empty subset busy (the
        others' files held aside); the whole set comes last."""
        held = [c.current for c in busy]
        demands = []
        for size in range(1, len(busy) + 1):
            for subset in itertools.combinations(busy, size):
                for channel in busy:
                    if channel not in subset:
                        channel.current = None
                demands.append(engine.demand_rate())
                for channel, current in zip(busy, held):
                    channel.current = current
        return demands

    @pytest.mark.parametrize("background,scale", [(0.0, 1.0), (6.0, 0.7)],
                             ids=["alone", "competing-brownout"])
    @pytest.mark.parametrize("testbed", list(TESTBEDS))
    def test_floor_bounds_every_subset(self, testbed, background, scale):
        engine, busy = self._busy_engine(testbed, background, scale)
        floor = engine.demand_floor(busy)
        demands = self._subset_demands(engine, busy)
        assert len(demands) == 15
        assert all(demand >= floor * (1.0 - 1e-12) for demand in demands)
        # here the bound is attained by some subset
        assert min(demands) == pytest.approx(floor, rel=1e-9)
        whole = demands[-1]
        if background == 0.0:
            # demand is not monotone: a smaller subset out-demands the set
            assert max(demands) > whole * 1.2
        elif testbed == "past-knee":
            # one channel's share of the link is below the whole set's
            assert floor < whole * 0.9

    def test_empty_busy_set_has_no_floor(self):
        engine, _busy = self._busy_engine("past-knee", 0.0, 1.0)
        assert engine.demand_floor([]) == math.inf


class TestObserverAccounting:
    """The observer's step events add up to the engine's own counters."""

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "grid"])
    def test_step_events_match_step_counters(self, make_small_engine, fast_path):
        observer = Observer()
        engine = make_small_engine(fast_path=fast_path, observer=observer)
        for name, cc in (("a", 2), ("b", 1), ("c", 3)):
            files = tuple(
                FileInfo(f"{name}{i}", (i + 1) * 4 * units.MB) for i in range(12)
            )
            engine.add_chunk(ChunkPlan(name, files, TransferParams(concurrency=cc)))
        engine.run(1.7)  # a run boundary mid-transfer closes a stretch
        engine.run()
        assert engine.finished
        fallbacks = observer.events.filter(kind="fixed_dt_fallback")
        macros = observer.events.filter(kind="macro_step")
        if fast_path:
            assert macros and engine.fixed_steps > 0
            assert len(macros) == engine.macro_steps
            assert sum(e.detail["steps"] for e in fallbacks) == engine.fixed_steps
            assert sum(e.detail["steps"] for e in macros) + engine.fixed_steps == round(
                engine.time / engine.dt
            )
        else:
            assert not fallbacks and not macros
            assert engine.fixed_steps == round(engine.time / engine.dt)
        counted = observer.metrics.counter("engine.fixed_steps").value
        assert counted == engine.fixed_steps
