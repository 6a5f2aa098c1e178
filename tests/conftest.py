"""Shared fixtures: small, fast synthetic environments for unit and
integration tests (the full paper testbeds are exercised separately in
the benchmark harness and in a few targeted integration tests)."""

from __future__ import annotations

import pytest

from repro import units
from repro.datasets.files import Dataset
from repro.netsim.disk import ParallelDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.engine import TransferEngine
from repro.netsim.link import NetworkPath
from repro.power.coefficients import CoefficientSet
from repro.power.models import FineGrainedPowerModel
from repro.testbeds.specs import Testbed


@pytest.fixture
def small_path() -> NetworkPath:
    """A 1 Gbps / 10 ms / 8 MB-buffer path (BDP = 1.25 MB)."""
    return NetworkPath(
        bandwidth=units.gbps(1),
        rtt=units.ms(10),
        tcp_buffer=8 * units.MB,
        protocol_efficiency=0.95,
        congestion_knee=8,
        congestion_slope=0.02,
    )


@pytest.fixture
def small_server() -> ServerSpec:
    return ServerSpec(
        name="test-server",
        cores=4,
        tdp_watts=100.0,
        nic_rate=units.gbps(1),
        disk=ParallelDisk(per_accessor_rate=50 * units.MB, array_rate=200 * units.MB),
        per_channel_rate=50 * units.MB,
        core_rate=200 * units.MB,
        per_file_overhead=0.0,
    )


@pytest.fixture
def small_site(small_server) -> EndSystem:
    return EndSystem(name="site", server=small_server, server_count=2)


@pytest.fixture
def small_dataset() -> Dataset:
    """100 MB across a mix of file sizes."""
    sizes = [1 * units.MB] * 20 + [10 * units.MB] * 4 + [40 * units.MB]
    return Dataset.from_sizes(sizes, name="test-100MB")


@pytest.fixture
def make_small_engine(small_path, small_site):
    """Factory for engines over the small synthetic environment."""

    def factory(**kwargs) -> TransferEngine:
        model = FineGrainedPowerModel(CoefficientSet())
        defaults = dict(dt=0.1)
        defaults.update(kwargs)
        return TransferEngine(small_path, small_site, small_site, model.power, **defaults)

    return factory


@pytest.fixture
def small_testbed(small_path, small_site, small_dataset) -> Testbed:
    """A complete miniature testbed for algorithm-level tests."""
    return Testbed(
        name="TestBed",
        path=small_path,
        source=small_site,
        destination=small_site,
        coefficients=CoefficientSet(),
        dataset_factory=lambda: small_dataset,
        concurrency_levels=(1, 2, 4),
        brute_force_max_concurrency=6,
        sla_reference_concurrency=4,
        engine_dt=0.1,
    )


@pytest.fixture
def built_engines(monkeypatch) -> list[TransferEngine]:
    """Every engine a ``MultiTransferSimulator`` builds during the test,
    in build (= submission) order. The simulator lets a job's engine go
    when the job finishes; this list keeps each one for assertions that
    cover every engine of a day."""
    import repro.netsim.multi as multi

    engines: list[TransferEngine] = []

    def build(*args, **kwargs) -> TransferEngine:
        engine = TransferEngine(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(multi, "TransferEngine", build)
    return engines
