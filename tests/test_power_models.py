"""Power models: Eq. 1 (fine-grained), Eq. 2 (CPU quadratic), Eq. 3 (TDP)."""

import random

import pytest

from repro import units
from repro.netsim.disk import ParallelDisk
from repro.netsim.endpoint import ServerSpec
from repro.netsim.utilization import Utilization, compute_utilization
from repro.power.coefficients import (
    CPU_QUAD_A,
    CPU_QUAD_B,
    CPU_QUAD_C,
    PAPER_COEFFICIENTS,
    CoefficientSet,
    cpu_coefficient,
)
from repro.power.models import CpuTdpPowerModel, FineGrainedPowerModel


def util(cpu=100.0, mem=10.0, disk=20.0, nic=30.0, cores=1, channels=1, streams=1):
    return Utilization(
        cpu_pct=cpu, mem_pct=mem, disk_pct=disk, nic_pct=nic,
        active_cores=cores, channels=channels, streams=streams, throughput=0.0,
    )


def server(tdp=100.0) -> ServerSpec:
    return ServerSpec(
        name="s", cores=4, tdp_watts=tdp, nic_rate=units.gbps(1),
        disk=ParallelDisk(50e6, 200e6), per_channel_rate=50e6, core_rate=200e6,
    )


class TestEquation2:
    def test_paper_constants(self):
        assert (CPU_QUAD_A, CPU_QUAD_B, CPU_QUAD_C) == (0.011, -0.082, 0.344)

    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0.273), (2, 0.224), (3, 0.197), (4, 0.192)],
    )
    def test_quadratic_values(self, n, expected):
        assert cpu_coefficient(n) == pytest.approx(0.011 * n * n - 0.082 * n + 0.344)
        assert cpu_coefficient(n) == pytest.approx(expected, abs=0.02)

    def test_per_core_coefficient_decreases_to_four_cores(self):
        # the published justification for the energy parabola
        values = [cpu_coefficient(n) for n in (1, 2, 3, 4)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_coefficient_rises_past_vertex(self):
        assert cpu_coefficient(6) > cpu_coefficient(4)

    def test_vertex_near_3_7(self):
        vertex = -CPU_QUAD_B / (2 * CPU_QUAD_A)
        assert vertex == pytest.approx(3.727, abs=0.01)

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            cpu_coefficient(0)


class TestCoefficientSet:
    def test_defaults_are_paper(self):
        assert PAPER_COEFFICIENTS.cpu(1) == pytest.approx(cpu_coefficient(1))

    def test_scaled(self):
        doubled = PAPER_COEFFICIENTS.scaled(2.0)
        assert doubled.scale == 2.0
        assert doubled.memory == PAPER_COEFFICIENTS.memory

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            CoefficientSet(memory=-1)


class TestFineGrainedModel:
    def test_equation_1_exact(self):
        model = FineGrainedPowerModel(CoefficientSet(memory=0.01, disk=0.08, nic=0.05))
        u = util(cpu=150.0, mem=40.0, disk=60.0, nic=80.0, cores=2)
        expected = cpu_coefficient(2) * 150 + 0.01 * 40 + 0.08 * 60 + 0.05 * 80
        assert model.power(server(), u) == pytest.approx(expected)

    def test_idle_draws_zero(self):
        model = FineGrainedPowerModel()
        assert model.power(server(), Utilization()) == 0.0

    def test_scale_multiplies(self):
        base = FineGrainedPowerModel(CoefficientSet(scale=1.0))
        half = FineGrainedPowerModel(CoefficientSet(scale=0.5))
        u = util()
        assert half.power(server(), u) == pytest.approx(0.5 * base.power(server(), u))

    def test_monotone_in_each_component(self):
        model = FineGrainedPowerModel()
        base = model.power(server(), util())
        assert model.power(server(), util(cpu=200)) > base
        assert model.power(server(), util(mem=50)) > base
        assert model.power(server(), util(disk=80)) > base
        assert model.power(server(), util(nic=90)) > base

    def test_callable_protocol(self):
        model = FineGrainedPowerModel()
        assert model(server(), util()) == model.power(server(), util())

    def test_never_negative(self):
        model = FineGrainedPowerModel()
        assert model.power(server(), util(cpu=0, mem=0, disk=0, nic=0)) >= 0.0


class TestPowerKernel:
    """``power_kernel`` is bit-identical (``==``, not approx) to
    ``power`` and ``power_components`` of ``compute_utilization``."""

    THROUGHPUTS = (0.0, 1.0, 3.7e4, 1.2345678e6, 5e7, 123456789.123, 2e8, 4.5e8, 1e9, 1e12)

    def test_matches_over_random_throughputs(self):
        rng = random.Random(7)
        model = FineGrainedPowerModel()
        for _ in range(2000):
            channels = rng.randint(1, 12)
            streams = channels * rng.randint(1, 4)
            throughput = rng.uniform(0.0, 2e9)
            self.assert_identical(model, server(), channels, streams, throughput)

    @staticmethod
    def assert_identical(model, spec, channels, streams, throughput):
        u = compute_utilization(spec, channels=channels, streams=streams, throughput=throughput)
        watts, *parts = model.power_kernel(spec, channels, streams)(throughput)
        assert watts == model.power(spec, u)
        assert tuple(parts) == tuple(model.power_components(spec, u).values())
        return u

    @pytest.mark.parametrize("throughput", THROUGHPUTS)
    @pytest.mark.parametrize("channels,streams", [(1, 1), (2, 5), (4, 4), (6, 9), (13, 40)])
    def test_matches_power_and_components(self, channels, streams, throughput):
        self.assert_identical(FineGrainedPowerModel(), server(), channels, streams, throughput)

    def test_zero_throughput(self):
        u = self.assert_identical(FineGrainedPowerModel(), server(), 3, 3, 0.0)
        assert u.mem_pct == u.disk_pct == u.nic_pct == 0.0
        assert u.cpu_pct > 0.0  # overhead cores still burn CPU

    def test_thrash_when_channels_exceed_cores(self):
        spec = server()
        for channels in (spec.cores + 1, 3 * spec.cores):
            u = self.assert_identical(FineGrainedPowerModel(), spec, channels, channels, 1e8)
            plain = compute_utilization(spec, channels=spec.cores, streams=channels, throughput=1e8)
            assert u.cpu_pct > plain.cpu_pct

    def test_clamps(self):
        spec = ServerSpec(
            name="slow", cores=2, tdp_watts=100.0, nic_rate=units.gbps(1),
            disk=ParallelDisk(50e6, 200e6), per_channel_rate=50e6, core_rate=1e6,
        )
        u = self.assert_identical(FineGrainedPowerModel(), spec, 3, 6, 1e12)
        assert u.cpu_pct == 100.0 * spec.cores
        assert u.mem_pct == u.disk_pct == u.nic_pct == 100.0

    def test_non_default_coefficients(self):
        model = FineGrainedPowerModel(
            CoefficientSet(cpu_a=0.02, cpu_b=-0.1, cpu_c=0.5, memory=0.03, disk=0.11, nic=0.07, scale=1.37)
        )
        for throughput in self.THROUGHPUTS:
            for channels, streams in ((1, 2), (5, 5), (8, 30)):
                self.assert_identical(model, server(), channels, streams, throughput)

    def test_negative_total_clamps_to_zero(self):
        model = FineGrainedPowerModel(CoefficientSet(cpu_c=-5.0, memory=0.0, disk=0.0, nic=0.0))
        assert model.power_kernel(server(), 1, 1)(1e6)[0] == 0.0
        self.assert_identical(model, server(), 1, 1, 1e6)

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            compute_utilization(server(), channels=2, streams=2, throughput=-1.0)
        with pytest.raises(ValueError):
            FineGrainedPowerModel().power_kernel(server(), 2, 2)(-1.0)

    @pytest.mark.parametrize("channels,streams", [(-1, 0), (0, 0), (0, -1), (3, 2)])
    def test_invalid_configuration_rejected(self, channels, streams):
        with pytest.raises(ValueError):
            FineGrainedPowerModel().power_kernel(server(), channels, streams)


class TestCpuTdpModel:
    def test_equation_3_scaling(self):
        # same utilization, remote TDP double the local -> double power
        model = CpuTdpPowerModel(local_tdp_watts=100.0, cpu_share=1.0)
        u = util(cpu=120.0, cores=2)
        local = model.power(server(tdp=100.0), u)
        remote = model.power(server(tdp=200.0), u)
        assert remote == pytest.approx(2.0 * local)
        assert local == pytest.approx(cpu_coefficient(2) * 120.0)

    def test_cpu_share_inflates_to_full_system(self):
        share = CpuTdpPowerModel(local_tdp_watts=100.0, cpu_share=0.897)
        raw = CpuTdpPowerModel(local_tdp_watts=100.0, cpu_share=1.0)
        u = util()
        assert share.power(server(), u) == pytest.approx(raw.power(server(), u) / 0.897)

    def test_ignores_non_cpu_components(self):
        model = CpuTdpPowerModel(local_tdp_watts=100.0)
        a = model.power(server(), util(disk=0, nic=0, mem=0))
        b = model.power(server(), util(disk=99, nic=99, mem=99))
        assert a == pytest.approx(b)

    def test_idle_zero(self):
        model = CpuTdpPowerModel(local_tdp_watts=100.0)
        assert model.power(server(), Utilization()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuTdpPowerModel(local_tdp_watts=0)
        with pytest.raises(ValueError):
            CpuTdpPowerModel(local_tdp_watts=100, cpu_share=0)

    def test_models_agree_within_tolerance_on_cpu_heavy_load(self):
        # the paper: CPU-only model tracks the fine-grained model
        # closely because CPU explains ~90% of transfer power
        fine = FineGrainedPowerModel(CoefficientSet(memory=0.005, disk=0.01, nic=0.01))
        cpu_only = CpuTdpPowerModel(local_tdp_watts=100.0, cpu_share=0.9,
                                    coefficients=CoefficientSet())
        u = util(cpu=300.0, mem=20.0, disk=30.0, nic=40.0, cores=4)
        a = fine.power(server(), u)
        b = cpu_only.power(server(tdp=100.0), u)
        assert abs(a - b) / a < 0.15
