"""Multi-transfer coordination: shared-path jobs, admission control."""

import dataclasses
import gc
import random
import weakref

import pytest

import repro.service.simulate
from repro import units
from repro.core.baselines import ProMCAlgorithm
from repro.core.mine import MinEAlgorithm
from repro.datasets.files import Dataset, FileInfo
from repro.netsim.disk import ParallelDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.engine import ChunkPlan
from repro.netsim.multi import MultiTransferSimulator, TransferTimeout
from repro.netsim.link import NetworkPath
from repro.netsim.params import TransferParams
from repro.obs import Observer
from repro.power.coefficients import CoefficientSet
from repro.service import ServiceSimulator, policy_by_name, tariff_by_name
from repro.service.fleet import FleetSimulator
from repro.service.policies import plan_cache_clear
from repro.service.requests import DEFAULT_TENANTS, bursty_workload
from repro.testbeds.specs import XSEDE
from repro.testbeds.specs import Testbed as TestbedSpec
from tests.test_engine_memo import _chunky_day


@pytest.fixture
def shared_testbed() -> TestbedSpec:
    """Link-bound path so concurrent jobs genuinely contend."""
    server = ServerSpec(
        name="host", cores=8, tdp_watts=100.0, nic_rate=units.gbps(1),
        disk=ParallelDisk(per_accessor_rate=100 * units.MB, array_rate=800 * units.MB),
        per_channel_rate=60 * units.MB, core_rate=400 * units.MB,
        per_file_overhead=0.0,
    )
    site = EndSystem("site", server, 1)
    return TestbedSpec(
        name="Shared",
        path=NetworkPath(
            bandwidth=units.gbps(1), rtt=units.ms(5), tcp_buffer=16 * units.MB,
            protocol_efficiency=1.0, congestion_knee=64,
        ),
        source=site,
        destination=site,
        coefficients=CoefficientSet(),
        dataset_factory=lambda: Dataset.from_sizes([50 * units.MB] * 20),
        engine_dt=0.1,
    )


def plan(name: str, n_files=20, size=50 * units.MB, cc=2) -> list[ChunkPlan]:
    files = tuple(FileInfo(f"{name}-{i}", int(size)) for i in range(n_files))
    return [ChunkPlan(name, files, TransferParams(concurrency=cc))]


class TestSubmission:
    def test_duplicate_names_rejected(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("a", plan("a"))
        with pytest.raises(ValueError):
            sim.submit("a", plan("a2"))

    def test_negative_arrival_rejected(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        with pytest.raises(ValueError):
            sim.submit("a", plan("a"), arrival_time=-1.0)

    def test_bad_cap_rejected(self, shared_testbed):
        with pytest.raises(ValueError):
            MultiTransferSimulator(shared_testbed, max_concurrent_jobs=0)


class TestSingleJobEquivalence:
    def test_one_job_matches_plain_engine(self, shared_testbed):
        from repro.netsim.engine import TransferEngine
        from repro.power.models import FineGrainedPowerModel

        plans = plan("solo")
        sim = MultiTransferSimulator(shared_testbed)
        record = sim.submit("solo", plans)
        sim.run()

        model = FineGrainedPowerModel(shared_testbed.coefficients)
        engine = TransferEngine(
            shared_testbed.path, shared_testbed.source, shared_testbed.destination,
            model.power, dt=shared_testbed.engine_dt,
        )
        for p in plans:
            engine.add_chunk(p)
        engine.run()

        assert record.turnaround_s == pytest.approx(engine.time, abs=2 * sim.dt)
        assert record.energy_joules == pytest.approx(engine.total_energy, rel=0.02)


class TestContention:
    def test_all_bytes_delivered(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        a = sim.submit("a", plan("a"))
        b = sim.submit("b", plan("b"))
        sim.run()
        assert a.finished and b.finished
        assert a.total_bytes == b.total_bytes == 20 * 50 * units.MB

    def test_concurrent_jobs_slow_each_other(self, shared_testbed):
        solo = MultiTransferSimulator(shared_testbed)
        record = solo.submit("solo", plan("solo", cc=4))
        solo.run()

        contended = MultiTransferSimulator(shared_testbed)
        a = contended.submit("a", plan("a", cc=4))
        contended.submit("b", plan("b", cc=4))
        contended.run()
        assert a.turnaround_s > record.turnaround_s

    def test_later_arrival_starts_later(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        early = sim.submit("early", plan("early"))
        late = sim.submit("late", plan("late"), arrival_time=3.0)
        sim.run()
        assert early.start_time == pytest.approx(0.0)
        assert late.start_time == pytest.approx(3.0, abs=2 * sim.dt)

    def test_makespan_and_total_energy(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("a", plan("a"))
        sim.submit("b", plan("b"))
        records = sim.run()
        assert sim.makespan == pytest.approx(
            max(r.completion_time for r in records)
        )
        assert sim.total_energy == pytest.approx(
            sum(r.energy_joules for r in records)
        )


class TestAdmissionControl:
    def test_cap_serializes_jobs(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=1)
        a = sim.submit("a", plan("a"))
        b = sim.submit("b", plan("b"))
        sim.run()
        assert b.start_time >= a.completion_time - sim.dt

    def test_serialized_vs_concurrent_tradeoff(self, shared_testbed):
        """Serialization gives each job full bandwidth (shorter per-job
        runtime); concurrency can only help or match makespan."""
        serial = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=1)
        concurrent = MultiTransferSimulator(shared_testbed)
        for sim in (serial, concurrent):
            sim.submit("a", plan("a", cc=4))
            sim.submit("b", plan("b", cc=4))
            sim.run()
        serial_a = serial.records()[0]
        concurrent_a = concurrent.records()[0]
        # job a runs faster alone than contended
        assert (
            serial_a.completion_time - serial_a.start_time
            < concurrent_a.completion_time - concurrent_a.start_time
        )
        assert concurrent.makespan <= serial.makespan + serial.dt

    def test_fifo_order(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=1)
        first = sim.submit("first", plan("first"), arrival_time=1.0)
        second = sim.submit("second", plan("second"), arrival_time=2.0)
        sim.run()
        assert first.start_time < second.start_time


class TestAdmissionOrderingAndWaiting:
    def test_fifo_tie_broken_by_submission_order(self, shared_testbed):
        """Equal arrival times start in submission order (stable sort)."""
        sim = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=1)
        first = sim.submit("first", plan("first"), arrival_time=1.0)
        second = sim.submit("second", plan("second"), arrival_time=1.0)
        sim.run()
        assert first.start_time < second.start_time

    def test_waiting_job_accrues_zero_energy(self, shared_testbed):
        """A queued job draws no power until it is admitted."""
        sim = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=1)
        sim.submit("a", plan("a"))
        b = sim.submit("b", plan("b"))
        while b.start_time is None:
            assert b.energy_joules == 0.0
            sim.step()
        assert b.start_time > 0.0

    def test_cap_honored_every_step(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=2)
        for name in ("a", "b", "c", "d"):
            sim.submit(name, plan(name))
        while not all(r.finished for r in sim.records()):
            sim.step()
            running = [
                r for r in sim.records()
                if r.start_time is not None and not r.finished
            ]
            assert len(running) <= 2


class TestTimeout:
    def test_timeout_raises_by_default(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("slow", plan("slow"))
        with pytest.raises(TransferTimeout, match="slow"):
            sim.run(max_time=3 * sim.dt)

    def test_timeout_warn_flags_truncated(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        record = sim.submit("slow", plan("slow"))
        with pytest.warns(RuntimeWarning, match="unfinished"):
            records = sim.run(max_time=3 * sim.dt, on_timeout="warn")
        assert records[0] is record
        assert record.truncated and not record.finished

    def test_bad_on_timeout_rejected(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("a", plan("a"))
        with pytest.raises(ValueError):
            sim.run(on_timeout="ignore")

    def test_finished_run_not_truncated(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        record = sim.submit("a", plan("a"))
        sim.run()
        assert record.finished and not record.truncated


class TestEngineDeferredAdmission:
    def _engine(self, testbed, **kwargs):
        from repro.netsim.engine import TransferEngine
        from repro.power.models import FineGrainedPowerModel

        model = FineGrainedPowerModel(testbed.coefficients)
        return TransferEngine(
            testbed.path, testbed.source, testbed.destination,
            model.power, dt=testbed.engine_dt, **kwargs,
        )

    def test_submit_then_admit(self, shared_testbed):
        engine = self._engine(shared_testbed)
        engine.submit_chunk(plan("x")[0])
        assert engine.pending_chunks == ["x"]
        assert not any(c.busy for c in engine.channels)
        opened = engine.admit_pending()
        assert opened == 2  # the plan's concurrency
        assert engine.pending_chunks == []
        engine.run()
        assert engine.finished

    def test_numeric_background_matches_callable(self, shared_testbed):
        """A constant stream count and an equivalent callable yield the
        same transfer (the numeric form just keeps the fast path on)."""
        results = []
        for bg in (6.0, lambda t: 6.0):
            engine = self._engine(shared_testbed, background_traffic=bg)
            engine.add_chunk(plan("x")[0])
            engine.run()
            results.append((engine.time, engine.total_energy))
        assert results[0][0] == pytest.approx(results[1][0], abs=1e-9)
        assert results[0][1] == pytest.approx(results[1][1], rel=1e-9)

    def test_set_background_streams_rejects_negative(self, shared_testbed):
        engine = self._engine(shared_testbed)
        with pytest.raises(ValueError):
            engine.set_background_streams(-1.0)


class TestWithRealPlans:
    def test_mine_and_promc_plans_coexist(self, small_testbed):
        ds = small_testbed.dataset()
        sim = MultiTransferSimulator(small_testbed)
        a = sim.submit("mine-job", MinEAlgorithm().plan(small_testbed, ds, 2))
        b = sim.submit("promc-job", ProMCAlgorithm().plan(small_testbed, ds, 2))
        sim.run()
        assert a.finished and b.finished
        assert a.energy_joules > 0 and b.energy_joules > 0


class TestRunUntil:
    """The event-horizon batch API: ``run_until`` must replay the
    per-``step()`` grid exactly — same timestamps, same energy — while
    macro-stepping every span it can prove frozen."""

    @staticmethod
    def _workload(sim: MultiTransferSimulator, overlap: bool):
        spacing = 2.0 if overlap else 40.0
        records = []
        for i in range(4):
            records.append(
                sim.submit(
                    f"j{i}",
                    plan(f"j{i}", n_files=10, size=30 * units.MB),
                    arrival_time=i * spacing,
                )
            )
        return records

    @staticmethod
    def _idle_jump(sim: MultiTransferSimulator) -> None:
        """Jump an idle gap on the dt grid (the service loop's exact
        arithmetic, used identically by both drivers below)."""
        import math as _math

        nxt = min(
            r.arrival_time for r in sim.records() if r.start_time is None
        )
        steps = max(1, _math.ceil((nxt - sim.time - 1e-9) / sim.dt))
        sim.time += steps * sim.dt

    @classmethod
    def _drive_fast(cls, sim: MultiTransferSimulator) -> None:
        while not all(r.finished for r in sim.records()):
            done = sim.run_until(1e9)
            if not done:
                cls._idle_jump(sim)

    @classmethod
    def _drive_grid(cls, sim: MultiTransferSimulator) -> None:
        while not all(r.finished for r in sim.records()):
            if any(
                r.start_time is not None and not r.finished
                for r in sim.records()
            ) or any(
                r.arrival_time <= sim.time + 1e-12
                for r in sim.records()
                if r.start_time is None
            ):
                sim.step()
            else:
                cls._idle_jump(sim)

    @pytest.mark.parametrize("overlap", [True, False])
    def test_matches_grid_exactly(self, shared_testbed, overlap):
        grid = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=3)
        self._workload(grid, overlap)
        self._drive_grid(grid)

        fast = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=3)
        self._workload(fast, overlap)
        self._drive_fast(fast)

        for rf, rg in zip(fast.records(), grid.records(), strict=True):
            assert rf.start_time == rg.start_time          # bit-equal
            assert rf.completion_time == rg.completion_time
            assert rf.energy_joules == pytest.approx(
                rg.energy_joules, rel=1e-9
            )

    def test_returns_at_first_completion(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        a = sim.submit("a", plan("a", n_files=4, size=10 * units.MB))
        b = sim.submit("b", plan("b", n_files=40, size=50 * units.MB))
        done = sim.run_until(1e9)
        assert [r.name for r in done] == ["a"]
        assert a.finished and not b.finished
        assert a.completion_time == sim.time

    def test_horizon_respected(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("a", plan("a"))
        done = sim.run_until(1.0)
        assert done == []
        assert 1.0 - sim.dt - 1e-9 <= sim.time <= 1.0 + 1e-9

    def test_macro_counters_advance(self, shared_testbed):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("a", plan("a"))
        sim.run_until(1e9)
        assert sim.macro_rounds > 0
        assert sim.macro_stepped_dts > sim.macro_rounds  # spans of >= 2 dts
        total = sim.macro_stepped_dts + sim.fixed_rounds
        assert total == pytest.approx(sim.time / sim.dt, abs=1.0)

    def test_arrival_capped_round_has_no_trailing_step(self, shared_testbed):
        """A lone long job with a second arrival ten steps out reaches
        the arrival's admission grid point in one macro round (no
        single-step round before it) and admits it at the grid's time."""
        horizon = 1.05  # one step past the admission point (t = 1.0)
        sims = {}
        for fast in (True, False):
            observer = Observer()
            sim = MultiTransferSimulator(shared_testbed, observer=observer)
            sim.submit("long", plan("long", n_files=1, size=2 * units.GB, cc=1))
            sim.submit("late", plan("late", n_files=2, size=20 * units.MB),
                       arrival_time=0.95)
            if fast:
                assert sim.run_until(horizon) == []
            else:
                while sim.time < horizon - 1e-9:
                    sim.step()
            sims[fast] = sim
        fast, grid = sims[True], sims[False]
        late = fast.records()[1]
        assert late.start_time == grid.records()[1].start_time  # bit-equal
        assert late.start_time == pytest.approx(10 * fast.dt)
        assert fast.time == grid.time
        # a 10-step macro round to the admission point, then the one
        # step the horizon leaves
        assert (fast.macro_rounds, fast.macro_stepped_dts, fast.fixed_rounds) == (1, 10, 1)
        counters = fast.observer.metrics.snapshot()["counters"]
        bounds = {k: v for k, v in counters.items() if k.startswith("multi.round_bound.")}
        assert bounds == {"multi.round_bound.macro": 1, "multi.round_bound.horizon": 1}
        for rf, rg in zip(fast.records(), grid.records(), strict=True):
            assert rf.energy_joules == pytest.approx(rg.energy_joules, rel=1e-9)

    @staticmethod
    def _peak_concurrency(records) -> int:
        """Most jobs running at once over ``[start, completion)``."""
        events = sorted(
            [(r.start_time, 1) for r in records]
            + [(r.completion_time, -1) for r in records]
        )
        running = peak = 0
        for _time, delta in events:  # completions sort before starts
            running += delta
            peak = max(peak, running)
        return peak

    def test_wide_coupled_set_matches_grid(self, shared_testbed):
        """A wide coupled set (ten jobs overlapping, as on a busy fleet
        shard) must stay bit-equal to the per-``step()`` grid, like the
        narrow one."""

        def workload(sim: MultiTransferSimulator):
            for i in range(10):
                sim.submit(
                    f"w{i}",
                    plan(f"w{i}", n_files=12, size=(15 + 5 * (i % 3)) * units.MB),
                    arrival_time=0.25 * i,
                )

        grid = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=10)
        workload(grid)
        self._drive_grid(grid)

        fast = MultiTransferSimulator(shared_testbed, max_concurrent_jobs=10)
        workload(fast)
        self._drive_fast(fast)

        assert self._peak_concurrency(fast.records()) >= 8
        for rf, rg in zip(fast.records(), grid.records(), strict=True):
            assert rf.start_time == rg.start_time          # bit-equal
            assert rf.completion_time == rg.completion_time
            assert rf.energy_joules == pytest.approx(
                rg.energy_joules, rel=1e-9
            )


class TestOpenSpans:
    """While two or more jobs run, ``run_until`` advances an engine only
    when its own allocation moves: a peer's event ends the round but not
    the engine's span while its rates hold. Each day here must match the
    per-``step()`` grid: bit-equal times, energy within 1e-9."""

    @staticmethod
    def _assert_matches_grid(fast, grid):
        for rf, rg in zip(fast.records(), grid.records(), strict=True):
            assert rf.start_time == rg.start_time          # bit-equal
            assert rf.completion_time == rg.completion_time
            assert rf.energy_joules == pytest.approx(rg.energy_joules, rel=1e-9)

    @staticmethod
    def _seeded_day(sim: MultiTransferSimulator, seed: int) -> None:
        rng = random.Random(seed)
        for i in range(rng.randint(2, 4)):
            sim.submit(
                f"s{i}",
                plan(f"s{i}", n_files=rng.randint(1, 12),
                     size=rng.choice((5, 20, 60, 150)) * units.MB,
                     cc=rng.randint(1, 3)),
                arrival_time=rng.choice((0.0, 0.0, 0.5, 1.3, 4.0)),
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_days_match_grid(self, shared_testbed, seed):
        sims = []
        for drive in (TestRunUntil._drive_fast, TestRunUntil._drive_grid):
            sim = MultiTransferSimulator(shared_testbed)
            self._seeded_day(sim, seed)
            drive(sim)
            sims.append(sim)
        self._assert_matches_grid(*sims)

    @staticmethod
    def _logged(monkeypatch) -> list[tuple]:
        """Every ``rates_hold`` answer and ``advance_prepared`` call, in
        call order, as ``(kind, engine, value)``."""
        from repro.netsim.engine import TransferEngine

        log: list[tuple] = []
        hold, advance = TransferEngine.rates_hold, TransferEngine.advance_prepared

        def rates_hold(self, busy, rates):
            held = hold(self, busy, rates)
            log.append(("hold", self, held))
            return held

        def advance_prepared(self, busy, rates, steps):
            log.append(("advance", self, steps))
            return advance(self, busy, rates, steps)

        monkeypatch.setattr(TransferEngine, "rates_hold", rates_hold)
        monkeypatch.setattr(TransferEngine, "advance_prepared", advance_prepared)
        return log

    def _day(self, testbed, peer_cc, *, fast):
        """A long one-file job beside a peer whose small files complete
        every fraction of a second. One channel is capped at 60 MB/s
        on a 125 MB/s link: a one-channel peer leaves the long job that
        cap whatever its own count; a three-channel peer takes the link
        share the long job gets."""
        sim = MultiTransferSimulator(testbed)
        sim.submit("long", plan("long", n_files=1, size=1 * units.GB, cc=1))
        sim.submit("peer", plan("peer", n_files=30, size=12 * units.MB, cc=peer_cc))
        if fast:
            TestRunUntil._drive_fast(sim)
        else:
            TestRunUntil._drive_grid(sim)
        return sim

    def test_peer_completions_leave_the_span_open(
        self, shared_testbed, built_engines, monkeypatch
    ):
        grid = self._day(shared_testbed, 1, fast=False)
        log = self._logged(monkeypatch)
        fast = self._day(shared_testbed, 1, fast=True)
        self._assert_matches_grid(fast, grid)
        long_engine = built_engines[2]
        rounds = fast.macro_rounds + fast.fixed_rounds
        assert long_engine.macro_steps + long_engine.fixed_steps < rounds
        held = [value for kind, engine, value in log
                if kind == "hold" and engine is long_engine]
        assert held and all(held)

    def test_a_rate_change_cuts_the_span(
        self, shared_testbed, built_engines, monkeypatch
    ):
        grid = self._day(shared_testbed, 3, fast=False)
        log = self._logged(monkeypatch)
        fast = self._day(shared_testbed, 3, fast=True)
        self._assert_matches_grid(fast, grid)
        long_engine = built_engines[2]
        mine = [(kind, value) for kind, engine, value in log if engine is long_engine]
        cuts = [i for i, (kind, value) in enumerate(mine) if (kind, value) == ("hold", False)]
        assert cuts
        # the engine is advanced by the steps it ran, before anything
        # else happens to it
        assert all(mine[i + 1][0] == "advance" and mine[i + 1][1] >= 1 for i in cuts)


class TestLoneCappedFlow:
    """A lone flow on a leaf-spine topology whose every non-empty busy
    subset out-demands its cap keeps that cap through dips and refills
    (``run_until`` pins it): fast and grid must still agree bit for bit.
    One channel demands 60 MB/s on the shared testbed; a spine share
    below that pins every busy set, one between 60 MB/s and the whole
    set's demand must be refused by the floor check."""

    JOBS = 3

    @classmethod
    def _run(cls, testbed, spine, cc, sizes, *, fast):
        sim = MultiTransferSimulator(
            testbed, topology=f"leaf-spine:s=2,l=2,spine={spine}",
            observer=Observer() if fast else None,
        )
        for i in range(cls.JOBS):
            files = tuple(FileInfo(f"j{i}-{n}", int(size)) for n, size in enumerate(sizes))
            sim.submit(
                f"j{i}", [ChunkPlan(f"j{i}", files, TransferParams(concurrency=cc))],
                arrival_time=100.0 * i,
            )
        if fast:
            TestRunUntil._drive_fast(sim)
        else:
            TestRunUntil._drive_grid(sim)
        return sim

    def _assert_matches_grid(self, testbed, spine, cc, sizes):
        fast = self._run(testbed, spine, cc, sizes, fast=True)
        grid = self._run(testbed, spine, cc, sizes, fast=False)
        records = fast.records()
        for rf, rg in zip(records, grid.records(), strict=True):
            assert rf.start_time == rg.start_time          # bit-equal
            assert rf.completion_time == rg.completion_time
            assert rf.energy_joules == pytest.approx(rg.energy_joules, rel=1e-9)
        # widely spaced: every job ran alone
        assert all(a.completion_time < b.start_time for a, b in zip(records, records[1:]))
        assert fast.macro_rounds > 0
        return fast

    EQUAL = (20 * units.MB,) * 12
    MIXED = tuple((7 + 5 * (i % 4)) * units.MB for i in range(14))
    #: Many mixed files: single-channel dips inside a span are common.
    MANY = tuple((5 + 4 * (i % 5)) * units.MB for i in range(48))

    @pytest.mark.parametrize("sizes", [EQUAL, MIXED], ids=["equal", "mixed"])
    @pytest.mark.parametrize("spine", [0.1, 0.3, 0.45])
    def test_single_channel_dips_empty_the_busy_set(self, shared_testbed, spine, sizes):
        self._assert_matches_grid(shared_testbed, spine, 1, sizes)

    @pytest.mark.parametrize("spine", [0.1, 0.3, 0.45])
    def test_equal_files_dip_together(self, shared_testbed, spine):
        fast = self._assert_matches_grid(shared_testbed, spine, 3, self.EQUAL)
        counters = fast.observer.metrics.snapshot()["counters"]
        # pinned rounds skip the refill bound: what is left are the
        # rounds after an all-empty boundary lifted the cap
        assert counters.get("multi.round_bound.refill", 0) < fast.macro_rounds

    @pytest.mark.parametrize("spine", [0.6, 0.7, 0.8, 0.9])
    def test_cap_between_one_channel_and_the_set_is_not_pinned(self, shared_testbed, spine):
        self._assert_matches_grid(shared_testbed, spine, 2, self.MANY)


class TestPinnedHold:
    """The round after a pinned lone-flow round holds the flow's cap
    without re-reading its demand. Each change to what the demand floor
    and the cap read must drop the hold: landing between a pinned round
    and the next, an ambient surge, a brownout, a bottleneck scale and
    a server failure must leave the fast day bit-equal to the grid,
    imposed caps included."""

    EVENTS = (
        (6.0, lambda sim: [sim.scale_bottleneck(f"spine{i}", 0.6) for i in (0, 1)]),
        (12.0, lambda sim: sim.set_link_scale(0.7)),
        (18.0, lambda sim: sim.inject_server_failure("src", 0, downtime=3.0)),
        (24.0, lambda sim: sim.set_ambient_streams(400.0)),
        # one round later: the surge must have lifted the cap
        (24.1, lambda sim: None),
    )

    @classmethod
    def _run(cls, testbed, engines, *, fast):
        sim = MultiTransferSimulator(
            testbed, topology="leaf-spine:s=2,l=2,spine=0.3",
            observer=Observer() if fast else None,
        )
        sizes = TestLoneCappedFlow.MANY * 2
        files = tuple(FileInfo(f"solo-{n}", int(size)) for n, size in enumerate(sizes))
        sim.submit("solo", [ChunkPlan("solo", files, TransferParams(concurrency=3))])
        engine = engines[-1]
        caps, held = [], []
        for at, action in cls.EVENTS:
            while sim.time < at - 1e-9:
                if fast:
                    sim.run_until(at)
                else:
                    sim.step()
            held.append(sim._hold is not None)
            caps.append(engine.capacity_cap)
            action(sim)
        if fast:
            TestRunUntil._drive_fast(sim)
        else:
            TestRunUntil._drive_grid(sim)
        return sim, caps, held

    def test_interventions_mid_pinned_span_match_grid(self, shared_testbed, built_engines):
        testbed = dataclasses.replace(
            shared_testbed,
            source=dataclasses.replace(shared_testbed.source, server_count=2),
            destination=dataclasses.replace(shared_testbed.destination, server_count=2),
        )
        fast, fast_caps, held = self._run(testbed, built_engines, fast=True)
        grid, grid_caps, _ = self._run(testbed, built_engines, fast=False)
        # every event lands right after a pinned round
        assert all(held[:-1])
        assert fast_caps == grid_caps
        assert fast_caps[-1] is None and None not in fast_caps[:-1]
        (rf,), (rg,) = fast.records(), grid.records()
        assert rf.start_time == rg.start_time          # bit-equal
        assert rf.completion_time == rg.completion_time
        assert rf.completion_time > self.EVENTS[-1][0]
        assert rf.energy_joules == pytest.approx(rg.energy_joules, rel=1e-9)


class TestRoundBoundCounters:
    """With an observer attached, ``run_until`` names the bound that
    ended every round in ``multi.round_bound.<reason>``."""

    REASONS = {"arrival", "horizon", "refill", "own", "count", "macro"}

    @staticmethod
    def _chunky_day(monkeypatch, observer):
        """A reduced chunky-archive day; returns its report and the
        simulator it ran on."""
        built = []

        class Recording(MultiTransferSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.service.simulate, "MultiTransferSimulator", Recording)
        service, requests = _chunky_day(100, seed=1)
        service.observer = observer
        plan_cache_clear()
        return service.run(requests), built[-1]

    def test_counters_sum_to_rounds(self, monkeypatch):
        observer = Observer()
        _report, sim = self._chunky_day(monkeypatch, observer)
        counters = observer.metrics.snapshot()["counters"]
        bounds = {
            name.rpartition(".")[2]: value
            for name, value in counters.items()
            if name.startswith("multi.round_bound.")
        }
        assert set(bounds) <= self.REASONS
        assert {"macro", "own", "refill"} <= set(bounds)
        assert sum(bounds.values()) == sim.fixed_rounds + sim.macro_rounds
        assert bounds["macro"] == sim.macro_rounds

    def test_observer_leaves_the_day_unchanged(self, monkeypatch):
        observed, _ = self._chunky_day(monkeypatch, Observer())
        plain, _ = self._chunky_day(monkeypatch, None)
        assert repr(observed) == repr(plain)

    @staticmethod
    def _topo_fleet_day(monkeypatch, observer):
        """A reduced topology-aware fleet day (60 bursty jobs over the
        15 leaf-pair shards of ``leaf-spine:s=2,l=6,spine=0.4``, one
        worker); returns the shard reports and every simulator built."""
        built = []

        class Recording(MultiTransferSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.service.simulate, "MultiTransferSimulator", Recording)
        jobs = 60
        day_s = 8640.0 * jobs / 500
        requests = bursty_workload(
            jobs, day_s=day_s, seed=1, tenants=DEFAULT_TENANTS, size_scale=0.1
        )
        fleet = FleetSimulator(
            XSEDE, policy=policy_by_name("run-now"),
            tariff=tariff_by_name("peak-offpeak", period_s=day_s),
            topology="leaf-spine:s=2,l=6,spine=0.4", routing="topology-aware",
            workers=1, observer=observer,
        )
        plan_cache_clear()
        report = fleet.run(requests)
        return [shard.report for shard in report.shards], built

    def test_topology_day_counters_sum_to_rounds(self, monkeypatch):
        observer = Observer()
        _reports, sims = self._topo_fleet_day(monkeypatch, observer)
        assert len(sims) == 15
        counters = observer.metrics.snapshot()["counters"]
        bounds = {
            name.rpartition(".")[2]: value
            for name, value in counters.items()
            if name.startswith("multi.round_bound.")
        }
        assert set(bounds) <= self.REASONS
        assert {"macro", "own", "refill", "count"} <= set(bounds)
        assert sum(bounds.values()) == sum(s.fixed_rounds + s.macro_rounds for s in sims)
        assert bounds["macro"] == sum(s.macro_rounds for s in sims)

    def test_observer_leaves_the_topology_day_unchanged(self, monkeypatch):
        observed, _ = self._topo_fleet_day(monkeypatch, Observer())
        plain, _ = self._topo_fleet_day(monkeypatch, None)
        assert repr(observed) == repr(plain)


class TestAccumulateTimes:
    """The one clock helper both fast paths call must land on the same
    bits as the scalar ``t += dt`` loop it stands for, on and off the
    exact dyadic grid."""

    def test_bit_equal_to_scalar_loop(self):
        from repro.netsim.engine import advance_clock

        for t0 in (0.0, 1.0, 123.456789, 9.6e5):
            for dt in (0.1, 0.05, 0.125, 1.0 / 3.0):
                for k in (1, 2, 31, 32, 71, 72, 200):
                    expected = []
                    t = t0
                    for _ in range(k):
                        t += dt
                        expected.append(t)
                    assert advance_clock(t0, dt, k) == expected[-1]
                    times: list[float] = []
                    assert advance_clock(t0, dt, k, times) == expected[-1]
                    assert times == expected

    @staticmethod
    def _scalar(t0: float, dt: float, k: int) -> list[float]:
        times = []
        for _ in range(k):
            t0 += dt
            times.append(t0)
        return times

    def _assert_bit_equal(self, t0: float, dt: float, k: int) -> None:
        from repro.netsim.engine import advance_clock

        expected = self._scalar(t0, dt, k)
        times: list[float] = []
        got = advance_clock(t0, dt, k, times)
        assert repr(got) == repr(expected[-1]), (t0, dt, k)
        assert repr(advance_clock(t0, dt, k)) == repr(got)
        assert times == expected, (t0, dt, k)

    def test_exact_dyadic_grid(self):
        """``dt`` a power of two and ``t0`` a whole multiple of it: the
        clock is ``t0 + k*dt``, bit-equal to the loop far from the
        origin and for long spans."""
        for exponent in range(-4, 2):
            dt = 2.0 ** exponent
            for n in (0, 1, 7, 2**20 + 3, 2**33 - 1, 2**40):
                for k in (1, 2, 5, 71, 72, 1000, 10_000):
                    self._assert_bit_equal(n * dt, dt, k)

    def test_off_the_dyadic_grid(self):
        """A dyadic ``dt`` from an off-grid clock, a span that would leave
        the exactly representable range, and non-dyadic ``dt`` values
        keep the loop: still bit-equal."""
        from repro.netsim.engine import advance_clock

        cases = [(123.456789, 0.125), (0.0625 / 3, 0.0625), (5e-324, 0.25)]
        cases += [(float(2**53 - 5), 1.0)]
        cases += [(t0, dt) for dt in (0.1, 1.0 / 3.0) for t0 in (0.0, 8.0, 9.6e5 * dt)]
        for t0, dt in cases:
            assert repr(advance_clock(t0, dt, 0)) == repr(t0)
            for k in (1, 2, 71, 72, 1000, 10_000):
                self._assert_bit_equal(t0, dt, k)


class TestBusyStreamCount:
    """``TransferEngine.busy_streams`` is maintained, not rescanned:
    work assignment and the advance count it, and closing a channel
    (which every failure goes through) makes the next read recount. So
    wherever the coordinator reads it — each round's start, after each
    engine's work assignment, after each ``run_until`` round — it must
    equal a fresh count of the channels holding a file, on a
    work-stealing day and on a chaos day, driven fast and on the grid."""

    @staticmethod
    def _plans(tag: str) -> list[ChunkPlan]:
        """A small-file chunk that drains first (its channels then
        steal from the large one, changing their parallelism) and a
        large-file chunk."""
        small = tuple(FileInfo(f"{tag}s{i}", (3 + i % 5) * 7 * units.MB) for i in range(24))
        large = tuple(FileInfo(f"{tag}l{i}", (2 + i) * 300 * units.MB) for i in range(5))
        return [
            ChunkPlan(f"{tag}small", small,
                      TransferParams(concurrency=4, parallelism=2, pipelining=4)),
            ChunkPlan(f"{tag}large", large, TransferParams(concurrency=3, parallelism=4)),
        ]

    @staticmethod
    def _recount(engine) -> int:
        return sum(c.parallelism for c in engine.channels if c.busy)

    @pytest.fixture
    def checked(self, monkeypatch, built_engines):
        """Simulators built through it have every engine's count checked
        at the three points; returns ``(build, checks, engines)`` with
        every engine those simulators built."""
        import repro.netsim.multi as multi
        from repro.netsim.engine import TransferEngine

        checks = {"round_start": 0, "assigned": 0, "round_end": 0}
        recount = self._recount

        def check_all(point: str) -> None:
            for engine in built_engines:
                assert engine.busy_streams == recount(engine), (point, engine.time)
            checks[point] += 1

        backgrounds = MultiTransferSimulator._backgrounds

        def checked_backgrounds(self, running, counts, total):
            for (_record, engine), count in zip(running, counts):
                assert count == recount(engine), ("round_start", self.time)
            checks["round_start"] += 1
            return backgrounds(self, running, counts, total)

        prepare_step = TransferEngine.prepare_step

        def checked_prepare_step(self):
            prepared = prepare_step(self)
            assert self.busy_streams == recount(self), ("assigned", self.time)
            checks["assigned"] += 1
            return prepared

        advance_clock = multi.advance_clock

        def checked_advance_clock(t0, dt, k, times=None):
            t = advance_clock(t0, dt, k, times)
            check_all("round_end")
            return t

        monkeypatch.setattr(MultiTransferSimulator, "_backgrounds", checked_backgrounds)
        monkeypatch.setattr(TransferEngine, "prepare_step", checked_prepare_step)
        monkeypatch.setattr(multi, "advance_clock", checked_advance_clock)

        def build() -> MultiTransferSimulator:
            return MultiTransferSimulator(XSEDE, max_concurrent_jobs=3)

        return build, checks, built_engines

    @staticmethod
    def _advance_to(sim: MultiTransferSimulator, horizon: float, fast: bool) -> None:
        while sim.time < horizon - 1e-9:
            if not fast or (not sim.run_until(horizon) and sim.time < horizon - 1e-9):
                sim.step()

    def _day(self, build, *, fast: bool, chaos: bool) -> MultiTransferSimulator:
        """Four overlapping two-chunk jobs, at most three running; the
        chaos day adds a brownout, a crash of the destination server
        every channel is bound to, and a round of channel failures that
        strands every running job until ``readmit_stranded``."""
        sim = build()
        for i in range(4):
            sim.submit(f"job{i}", self._plans(f"j{i}-"), arrival_time=2.0 * i)
        script = ()
        if chaos:
            script = (
                (3.0, lambda: sim.set_link_scale(0.5)),
                (6.0, lambda: sim.inject_server_failure("dst", 0, downtime=5.0)),
                # every channel of every running job: all stranded
                (8.0, lambda: sim.inject_channel_failures(per_job=16)),
                (9.0, lambda: self.readmitted.extend(sim.readmit_stranded())),
                (11.0, lambda: sim.set_link_scale(1.0)),
            )
        for at, action in script:
            self._advance_to(sim, at, fast)
            action()
        while not all(r.finished for r in sim.records()):
            self._advance_to(sim, sim.time + 60.0, fast)
        return sim

    @pytest.mark.parametrize("chaos", [False, True], ids=["work-stealing", "chaos"])
    def test_count_matches_a_recount_and_fast_matches_grid(self, checked, chaos):
        build, checks, engines = checked
        self.readmitted: list[str] = []
        fast = self._day(build, fast=True, chaos=chaos)
        grid = self._day(build, fast=False, chaos=chaos)
        assert min(checks.values()) > 0
        for rf, rg in zip(fast.records(), grid.records(), strict=True):
            assert rf.start_time == rg.start_time  # bit-equal
            assert rf.completion_time == rg.completion_time
            assert rf.energy_joules == pytest.approx(rg.energy_joules, rel=1e-9)
        assert len(engines) == 2 * 4
        # the days exercise what the count must follow
        stolen = sum(
            len(engine.channels_for(name)) > state.plan.params.concurrency
            for engine in engines
            for name, state in engine.chunks.items()
        )
        assert stolen > 0
        if chaos:
            assert sum(engine.server_failures for engine in engines) > 0
            assert sum(engine.channel_failures for engine in engines) > 0
            assert len(self.readmitted) == 2 * 3  # three running, both days


class TestJobMemory:
    """A finished job keeps only its record: its engine is freed, by
    reference counting alone, when a driver stamps its completion."""

    @pytest.fixture
    def engine_refs(self, monkeypatch):
        """Weak references to every engine a simulator builds, in build
        order, with the cyclic collector off for the test."""
        import repro.netsim.multi as multi

        refs: list[weakref.ref] = []
        build = multi.TransferEngine

        def recording(*args, **kwargs):
            engine = build(*args, **kwargs)
            refs.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(multi, "TransferEngine", recording)
        gc.collect()
        gc.disable()
        yield refs
        gc.enable()

    @staticmethod
    def _alive(refs) -> list[bool]:
        return [ref() is not None for ref in refs]

    @pytest.mark.parametrize("fast", [False, True], ids=["step", "run_until"])
    def test_finished_engine_is_unreachable(self, shared_testbed, engine_refs, fast):
        sim = MultiTransferSimulator(shared_testbed)
        sim.submit("short", plan("short", n_files=4))
        sim.submit("long", plan("long", n_files=20))
        short, long = sim.records()
        while not short.finished:
            sim.run_until(1e7) if fast else sim.step()
        assert not long.finished
        assert self._alive(engine_refs) == [False, True]
        sim.run()
        assert long.finished
        assert self._alive(engine_refs) == [False, False]

    @pytest.mark.parametrize("fast", [False, True], ids=["step", "run_until"])
    @pytest.mark.parametrize("topology,max_concurrent", [
        (None, 4),
        # a lone flow pinned below its demand: the hold names its engine
        ("leaf-spine:s=2,l=4,spine=0.1", 1),
    ], ids=["single-link", "pinned-lone-flow"])
    def test_only_unfinished_jobs_hold_engines(
        self, engine_refs, monkeypatch, topology, max_concurrent, fast
    ):
        """After every driver call of a service day, exactly the queued
        and running jobs' engines are alive."""
        checked = []

        def checking(driver):
            def call(sim, *args):
                result = driver(sim, *args)
                unfinished = [not record.finished for record in sim.records()]
                assert self._alive(engine_refs) == unfinished
                checked.append(sum(unfinished))
                return result
            return call

        for name in ("step", "run_until"):
            monkeypatch.setattr(
                MultiTransferSimulator, name,
                checking(getattr(MultiTransferSimulator, name)),
            )
        day_s = 600.0
        requests = bursty_workload(12, day_s=day_s, seed=9, size_scale=0.1)
        plan_cache_clear()
        report = ServiceSimulator(
            XSEDE, policy=policy_by_name("run-now"),
            tariff=tariff_by_name("peak-offpeak", period_s=day_s),
            max_concurrent_jobs=max_concurrent, topology=topology, fast=fast,
        ).run(requests)
        assert report.finished_jobs == len(engine_refs) == 12
        assert checked and not any(self._alive(engine_refs))
