"""Engine energy accounting against hand-computed expectations, and the
multi-server (GO-premium) mechanism."""

from types import SimpleNamespace

import pytest

from repro import units
from repro.datasets.files import FileInfo
from repro.netsim.disk import ParallelDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.engine import Binding, ChunkPlan, TransferEngine
from repro.netsim.link import NetworkPath
from repro.netsim.multi import MultiTransferSimulator
from repro.netsim.params import TransferParams
from repro.netsim.utilization import compute_utilization
from repro.power.coefficients import CoefficientSet
from repro.power.models import FineGrainedPowerModel
from repro.testbeds.specs import XSEDE


def spec(**overrides) -> ServerSpec:
    base = dict(
        name="s",
        cores=4,
        tdp_watts=100.0,
        nic_rate=units.gbps(10),
        disk=ParallelDisk(per_accessor_rate=100e6, array_rate=400e6),
        per_channel_rate=100e6,
        core_rate=400e6,
        channel_cpu_overhead=0.0,
        stream_cpu_overhead=0.0,
        active_overhead=0.0,
        thrash_factor=0.0,
        per_file_overhead=0.0,
    )
    base.update(overrides)
    return ServerSpec(**base)


def fast_path() -> NetworkPath:
    return NetworkPath(
        bandwidth=units.gbps(10), rtt=0.0, tcp_buffer=32 * units.MB,
        protocol_efficiency=1.0,
    )


class TestSteadyStateEnergy:
    def test_matches_hand_computation(self):
        """One channel at exactly 100 MB/s for 10 s: energy must equal
        2 servers x P(Eq.1 at the known utilization) x 10 s."""
        model = FineGrainedPowerModel(CoefficientSet(memory=0.0, disk=0.0, nic=0.0))
        server = spec()
        site = EndSystem("site", server, 1)
        engine = TransferEngine(fast_path(), site, site, model.power, dt=0.5)
        engine.add_chunk(
            ChunkPlan("c", (FileInfo("f", 10 * 100 * 10**6),), TransferParams())
        )
        engine.run()
        assert engine.time == pytest.approx(10.0)

        util = compute_utilization(server, channels=1, streams=1, throughput=100e6)
        expected_power = 2 * model.power(server, util)  # both endpoints
        assert engine.total_energy == pytest.approx(expected_power * 10.0, rel=1e-6)

    def test_component_attribution_matches_total(self):
        model = FineGrainedPowerModel(CoefficientSet())
        site = EndSystem("site", spec(), 1)
        engine = TransferEngine(fast_path(), site, site, model.power, dt=0.5)
        engine.add_chunk(ChunkPlan("c", (FileInfo("f", 500e6),), TransferParams()))
        engine.run()
        assert sum(engine.component_energy.values()) == pytest.approx(
            engine.total_energy, rel=1e-9
        )

    def test_no_power_when_idle(self):
        model = FineGrainedPowerModel()
        site = EndSystem("site", spec(), 1)
        engine = TransferEngine(fast_path(), site, site, model.power, dt=0.5)
        engine.add_chunk(ChunkPlan("c", (FileInfo("f", 50e6),), TransferParams()))
        engine.run()
        done_energy = engine.total_energy
        engine.step()  # nothing left to do
        assert engine.total_energy == done_energy


class TestMultiServerPremium:
    """The mechanism behind 'GO consumes ~60% more energy': spreading
    channels wakes more servers, each paying its participation
    overhead and the worse single-core Eq. 2 coefficient."""

    def _run(self, binding: Binding) -> float:
        server = spec(active_overhead=0.3, channel_cpu_overhead=0.05)
        site = EndSystem("site", server, server_count=2)
        model = FineGrainedPowerModel(CoefficientSet(memory=0.0, disk=0.0, nic=0.0))
        engine = TransferEngine(fast_path(), site, site, model.power, dt=0.5,
                                binding=binding)
        files = tuple(FileInfo(f"f{i}", 500e6) for i in range(4))
        engine.add_chunk(ChunkPlan("c", files, TransferParams(concurrency=2)))
        engine.run()
        return engine.total_energy

    def test_spread_costs_more_than_pack(self):
        packed = self._run(Binding.PACK)
        spread = self._run(Binding.SPREAD)
        assert spread > 1.15 * packed

    def test_single_channel_binding_irrelevant(self):
        server = spec(active_overhead=0.3)
        site = EndSystem("site", server, server_count=4)
        model = FineGrainedPowerModel(CoefficientSet())
        energies = []
        for binding in (Binding.PACK, Binding.SPREAD):
            engine = TransferEngine(fast_path(), site, site, model.power, dt=0.5,
                                    binding=binding)
            engine.add_chunk(ChunkPlan("c", (FileInfo("f", 500e6),), TransferParams()))
            engine.run()
            energies.append(engine.total_energy)
        assert energies[0] == pytest.approx(energies[1])


class TestGapAccounting:
    def test_control_gaps_extend_time_and_cost_energy(self):
        """Small files without pipelining stall the channel; the clock
        and the power meter keep running — the paper's energy cost of
        untuned pipelining."""
        model = FineGrainedPowerModel(CoefficientSet())
        site = EndSystem("site", spec(active_overhead=0.2), 1)
        path = NetworkPath(
            bandwidth=units.gbps(10), rtt=units.ms(100), tcp_buffer=32 * units.MB,
            protocol_efficiency=1.0,
        )
        files = tuple(FileInfo(f"f{i}", 10e6) for i in range(40))

        def run(pp: int) -> tuple[float, float]:
            engine = TransferEngine(path, site, site, model.power, dt=0.25)
            engine.add_chunk(ChunkPlan("c", files, TransferParams(pipelining=pp)))
            engine.run()
            return engine.time, engine.total_energy

        slow_time, slow_energy = run(1)
        fast_time, fast_energy = run(20)
        assert slow_time > 1.5 * fast_time
        assert slow_energy > fast_energy


class TestPowerKernelOracle:
    """The engine's per-configuration power kernels (the model's
    ``power_kernel``) against the generic adapter, which builds a
    ``Utilization`` and calls the model every step: total energy is
    bit-equal in every driver."""

    @staticmethod
    def _plans(tag: str = "") -> list[ChunkPlan]:
        small = tuple(FileInfo(f"{tag}s{i}", (3 + i % 5) * 7 * units.MB) for i in range(30))
        large = tuple(FileInfo(f"{tag}l{i}", (2 + i) * 400 * units.MB) for i in range(6))
        return [
            ChunkPlan(f"{tag}small", small, TransferParams(concurrency=6, parallelism=2, pipelining=4)),
            ChunkPlan(f"{tag}large", large, TransferParams(concurrency=3, parallelism=4)),
        ]

    def _engine(self, power, *, fast_path: bool, binding: Binding) -> TransferEngine:
        engine = TransferEngine(
            XSEDE.path, XSEDE.source, XSEDE.destination, power,
            dt=XSEDE.engine_dt, binding=binding, fast_path=fast_path,
        )
        for plan in self._plans():
            engine.add_chunk(plan)
        engine.run()
        return engine

    @pytest.mark.parametrize("binding", [Binding.PACK, Binding.SPREAD], ids=lambda b: b.value)
    @pytest.mark.parametrize("fast", [False, True], ids=["fixed", "fast"])
    def test_single_engine_bit_equal(self, fast, binding):
        model = FineGrainedPowerModel(XSEDE.coefficients)
        kernel = self._engine(model.power, fast_path=fast, binding=binding)
        generic = self._engine(lambda s, u: model.power(s, u), fast_path=fast, binding=binding)
        assert kernel.total_energy > 0.0
        assert kernel.total_energy == generic.total_energy
        assert kernel.time == generic.time
        assert kernel.total_bytes == generic.total_bytes
        assert generic.component_energy == {}
        assert list(kernel.component_energy) == ["cpu", "memory", "disk", "nic"]
        assert sum(kernel.component_energy.values()) == pytest.approx(
            kernel.total_energy, rel=1e-9
        )

    def _multi(self, generic: bool, fast: bool) -> MultiTransferSimulator:
        sim = MultiTransferSimulator(XSEDE, max_concurrent_jobs=3)
        if generic:
            model = sim._power_model
            sim._power_model = SimpleNamespace(power=lambda s, u: model.power(s, u))
        for i in range(4):
            sim.submit(f"job{i}", self._plans(f"j{i}-"))
        if fast:
            while not all(r.finished for r in sim.records()):
                assert sim.run_until(1e7)
        else:
            sim.run()
        return sim

    @pytest.mark.parametrize("fast", [False, True], ids=["step", "run_until"])
    def test_multi_transfer_bit_equal(self, fast, built_engines):
        kernel, generic = self._multi(False, fast), self._multi(True, fast)
        # the kernel day was built first: its four engines lead the list
        assert len(built_engines) == 8
        assert kernel.total_energy > 0.0
        assert kernel.total_energy == generic.total_energy
        assert [r.energy_joules for r in kernel.records()] == [
            r.energy_joules for r in generic.records()
        ]
        assert [r.completion_time for r in kernel.records()] == [
            r.completion_time for r in generic.records()
        ]
        for engine in built_engines[:4]:
            assert sum(engine.component_energy.values()) == pytest.approx(
                engine.total_energy, rel=1e-9
            )
