"""The allocation and power-group memos one simulator shares across its
job engines.

Fast-vs-grid gates cannot catch a wrong memo key (both drivers read the
same memo), so the contract here is *cached vs cold*: a day run with
the memo tables replaced by ones that never store — every step a cold
solve — must be ``repr``-identical to the cached day. Next to it: the
tables are shared by every engine of one simulator and by no other
simulator, stay within ``_MEMO_CAP``, and every job's engine conserves
its own bytes and energy (a shared memo handing one engine another's
rates would break both).
"""

import pytest

import repro.service.simulate
from repro import units
from repro.datasets.files import FileInfo
from repro.netsim.engine import _MEMO_CAP, ChunkPlan
from repro.netsim.multi import MultiTransferSimulator
from repro.netsim.params import TransferParams
from repro.service import ServiceSimulator, policy_by_name, tariff_by_name
from repro.service.policies import plan_cache_clear
from repro.service.requests import (
    BALANCED,
    DEFAULT_TENANTS,
    ENERGY,
    TenantProfile,
    bursty_workload,
    diurnal_workload,
    sla,
)
from repro.testbeds.specs import XSEDE
from repro.units import GB


class ColdMemo(dict):
    """A memo table that never stores: every lookup misses. It keeps
    each ``(key, value)`` it was handed in ``solved``."""

    def __init__(self) -> None:
        super().__init__()
        self.solved: list[tuple] = []

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value) -> None:
        self.solved.append((key, value))


def _plans(tag: str) -> list[ChunkPlan]:
    small = tuple(FileInfo(f"{tag}s{i}", (3 + i % 5) * 7 * units.MB) for i in range(24))
    large = tuple(FileInfo(f"{tag}l{i}", (2 + i) * 300 * units.MB) for i in range(5))
    return [
        ChunkPlan(f"{tag}small", small, TransferParams(concurrency=4, parallelism=2, pipelining=4)),
        ChunkPlan(f"{tag}large", large, TransferParams(concurrency=3, parallelism=4)),
    ]


def _advance_to(sim: MultiTransferSimulator, horizon: float) -> None:
    """``run_until`` up to ``horizon``, walking the grid while idle."""
    while sim.time < horizon - 1e-9:
        if not sim.run_until(horizon) and sim.time < horizon - 1e-9:
            sim.step()


def _chaos_day(cold: bool) -> MultiTransferSimulator:
    """Four overlapping jobs under a 1.0 -> 0.5 -> 1.0 brownout, a
    destination-server crash and a round of channel failures."""
    sim = MultiTransferSimulator(XSEDE, max_concurrent_jobs=3)
    if cold:
        sim._memos = (ColdMemo(), ColdMemo())
    for i in range(4):
        sim.submit(f"job{i}", _plans(f"j{i}-"), arrival_time=2.0 * i)
    script = (
        (3.0, lambda: sim.set_link_scale(0.5)),
        (6.0, lambda: sim.inject_server_failure("dst", 1, downtime=5.0)),
        (8.0, lambda: sim.inject_channel_failures(per_job=1)),
        (8.0, sim.readmit_stranded),
        (11.0, lambda: sim.set_link_scale(1.0)),
    )
    for at, action in script:
        _advance_to(sim, at)
        action()
    while not all(r.finished for r in sim.records()):
        _advance_to(sim, sim.time + 60.0)
    return sim


#: Chunky-archive tenants: a handful of large files per job.
CHUNKY_TENANTS = (
    TenantProfile("backup", share=0.5, sla=ENERGY, mean_size=40 * GB,
                  deadline_slack_frac=0.90, file_fracs=(1 / 6, 1 / 2)),
    TenantProfile("replica", share=0.3, sla=BALANCED, mean_size=24 * GB,
                  deadline_slack_frac=0.35, file_fracs=(1 / 8, 1 / 3)),
    TenantProfile("media", share=0.2, sla=sla(0.8), mean_size=16 * GB,
                  deadline_slack_frac=0.20, file_fracs=(1 / 4, 1 / 2)),
)


def _chunky_day(jobs: int, seed: int = 0):
    """A reduced XSEDE chunky-archive day (run-now, peak-offpeak)."""
    day_s = 86.4 * jobs
    requests = diurnal_workload(jobs, day_s=day_s, seed=seed, tenants=CHUNKY_TENANTS,
                                size_scale=2.0, dataset_pool=32)
    return _service("run-now", day_s), requests


def _spray_day(jobs: int, seed: int = 0):
    """A reduced XSEDE small-file day under price-threshold deferral."""
    day_s = 18.0 * jobs
    requests = diurnal_workload(jobs, day_s=day_s, seed=seed, tenants=DEFAULT_TENANTS,
                                size_scale=1 / 24)
    return _service("price-threshold", day_s), requests


def _topo_day(jobs: int = 40, seed: int = 3):
    """Both directions of one leaf pair over two thin spines: placed
    flows are capped by the network-wide water-fill."""
    day_s = 600.0
    requests = bursty_workload(jobs, day_s=day_s, seed=seed, size_scale=0.1)
    return _service("run-now", day_s, topology="leaf-spine:s=2,l=2,spine=0.3"), requests


def _service(policy: str, day_s: float, **kwargs) -> ServiceSimulator:
    return ServiceSimulator(
        XSEDE,
        policy=policy_by_name(policy),
        tariff=tariff_by_name("peak-offpeak", period_s=day_s),
        max_concurrent_jobs=4,
        **kwargs,
    )


class _Built(list):
    """The simulators a service day built, in order."""

    cold = False


@pytest.fixture
def simulators(monkeypatch):
    """Capture every simulator a service day builds; with ``cold`` set
    each one starts on :class:`ColdMemo` tables."""
    built = _Built()

    class Recording(MultiTransferSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if built.cold:
                self._memos = (ColdMemo(), ColdMemo())
            built.append(self)

    monkeypatch.setattr(repro.service.simulate, "MultiTransferSimulator", Recording)
    return built


def _run(day, simulators, *, cold: bool):
    service, requests = day
    simulators.cold = cold
    plan_cache_clear()
    report = service.run(requests)
    return report, simulators[-1]


class TestCachedVsCold:
    """A cached day is ``repr``-identical to the same day solved cold."""

    def test_chaos_day(self, built_engines):
        cached, cold = _chaos_day(cold=False), _chaos_day(cold=True)
        assert repr(cached.records()) == repr(cold.records())
        assert repr(cached.total_energy) == repr(cold.total_energy)
        assert repr(cached.time) == repr(cold.time)
        assert cold._memos[0].solved and cold._memos[1].solved
        scales = {key[3] for key, _rates in cold._memos[0].solved}
        assert scales == {1.0, 0.5}
        cold_engines = built_engines[len(cached.records()):]
        assert len(cold_engines) == 4
        assert sum(engine.server_failures for engine in cold_engines) > 0
        assert sum(engine.channel_failures for engine in cold_engines) > 0

    @pytest.mark.parametrize("day", [_topo_day, lambda: _spray_day(60)],
                             ids=["topo-2-pair", "spray-deferral"])
    def test_service_day(self, day, simulators):
        cached, cached_sim = _run(day(), simulators, cold=False)
        cold, cold_sim = _run(day(), simulators, cold=True)
        assert repr(cached) == repr(cold)
        assert repr(cached.total_energy_j) == repr(cold.total_energy_j)
        assert cached_sim._memos[0] and cold_sim._memos[0].solved
        if cold_sim.topology is not None:
            # the caps bound: some solve's rates sum to its cap
            assert any(
                cap is not None and sum(rates) == pytest.approx(cap, rel=1e-9)
                for (_sig, _competing, cap, _scale), rates in cold_sim._memos[0].solved
            )


class TestSharedTables:
    def test_one_pair_of_tables_per_simulator(self, built_engines):
        sims = [MultiTransferSimulator(XSEDE) for _ in range(2)]
        for sim in sims:
            built_engines.clear()
            for i in range(3):
                sim.submit(f"job{i}", _plans(f"j{i}-"))
            alloc, power = sim._memos
            assert len(built_engines) == 3
            assert all(
                engine._alloc_cache is alloc and engine._power_memo is power
                for engine in built_engines
            )
        assert not set(map(id, sims[0]._memos)) & set(map(id, sims[1]._memos))

    def test_tables_stay_bounded_and_a_new_simulator_starts_empty(self, simulators):
        _run(_spray_day(120), simulators, cold=False)
        assert all(0 < len(table) <= _MEMO_CAP for table in simulators[0]._memos)
        assert MultiTransferSimulator(XSEDE)._memos == ({}, {})


class TestPerJobConservation:
    """Every job's record agrees with its own engine: bytes within
    1e-12 relative, energy bit-for-bit."""

    @pytest.mark.parametrize("day", [_chunky_day, _spray_day], ids=["chunky-day", "spray-deferral"])
    def test_records_match_their_engines(self, day, simulators, built_engines):
        _report, sim = _run(day(200), simulators, cold=False)
        assert len(simulators) == 1 and len(built_engines) == 200
        for record, engine in zip(sim.records(), built_engines, strict=True):
            assert record.finished
            assert engine.total_bytes == pytest.approx(record.total_bytes, rel=1e-12, abs=0.0)
            assert record.energy_joules == engine.total_energy
