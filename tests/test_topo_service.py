"""Topology-backed service runs: the single-link regression anchor,
fast-vs-grid equivalence across topologies and placement policies, the
chaos wiring (targeted brownouts, the ``spine-congestion`` preset) and
the topology observer events."""

import json

import pytest

from repro.chaos import LinkScale, run_scenario, scenario_by_name
from repro.datasets.files import FileInfo
from repro.netsim.engine import ChunkPlan
from repro.netsim.multi import MultiTransferSimulator
from repro.netsim.params import TransferParams
from repro.obs.observer import Observer
from repro.service import (
    RunNow,
    ServiceSimulator,
    bursty_workload,
    peak_offpeak_tariff,
    poisson_workload,
)
from repro.service.policies import plan_cache_clear
from repro.service.tariff import tariff_by_name
from repro.testbeds.specs import testbed_by_name as _testbed_by_name

XSEDE = _testbed_by_name("xsede")
DAY = 600.0

#: bit-equal between fast/grid and across topology variants
EXACT_FIELDS = ("submitted_at", "released_at", "admitted_at", "completed_at")
#: equal to fp round-off (different summation order)
CLOSE_FIELDS = ("energy_j", "cost_usd", "kg_co2")
REL_TOL = 1e-9

TOPOLOGIES = ("leaf-spine:s=2,l=4,spine=0.4", "fat-tree:k=4,core=0.3")
PLACEMENTS = ("least-congested", "ecmp-hash")


def run_day(requests, *, fast=True, observer=None, **kwargs):
    plan_cache_clear()
    sim = ServiceSimulator(
        XSEDE,
        policy=RunNow(),
        tariff=peak_offpeak_tariff(period_s=DAY),
        fast=fast,
        observer=observer,
        **kwargs,
    )
    return sim.run(requests)


def report_json(report) -> str:
    """The report as canonical JSON minus the topology labels — the
    byte-identity probe used against the plain point-to-point run."""
    data = report.to_dict()
    data.pop("topology", None)
    data.pop("placement", None)
    return json.dumps(data, sort_keys=True)


def assert_equivalent(fast, grid):
    assert [j.name for j in fast.jobs] == [j.name for j in grid.jobs]
    for jf, jg in zip(fast.jobs, grid.jobs):
        for attr in EXACT_FIELDS:
            assert getattr(jf, attr) == getattr(jg, attr), (jf.name, attr)
        for attr in CLOSE_FIELDS:
            a, b = getattr(jf, attr), getattr(jg, attr)
            assert a == pytest.approx(b, rel=REL_TOL), (jf.name, attr)


class TestSingleLinkAnchor:
    """A single-link topology at nominal bandwidth never binds, so the
    run must be byte-identical to the classic point-to-point path —
    in both the fast and the grid driver."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "grid"])
    def test_byte_identity(self, fast):
        requests = poisson_workload(
            6, day_s=DAY, seed=11, size_scale=DAY / 86400.0
        )
        plain = run_day(requests, fast=fast)
        anchored = run_day(requests, fast=fast, topology="single-link")
        assert anchored.topology == "single-link"
        assert report_json(anchored) == report_json(plain)

    def test_report_labels(self):
        requests = poisson_workload(
            4, day_s=DAY, seed=3, size_scale=DAY / 86400.0
        )
        report = run_day(
            requests, topology="single-link", placement="ecmp-hash"
        )
        data = report.to_dict()
        assert data["topology"] == "single-link"
        assert data["placement"] == "ecmp-hash"
        plain = run_day(requests)
        assert plain.to_dict()["topology"] is None


class TestFastVsGrid:
    """The event-horizon fast path under topology capacity caps must
    stay an exact re-implementation of the dt-grid loop."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_equivalence(self, topology, placement):
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(
            topology=topology,
            placement=placement,
            placement_seed=7,
            max_concurrent_jobs=6,
        )
        fast = run_day(requests, fast=True, **kwargs)
        grid = run_day(requests, fast=False, **kwargs)
        assert_equivalent(fast, grid)

    def test_same_seed_rerun_is_byte_identical(self):
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=TOPOLOGIES[0], placement="random-k",
                      placement_seed=3)
        one = run_day(requests, **kwargs)
        two = run_day(requests, **kwargs)
        assert report_json(one) == report_json(two)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            ServiceSimulator(
                XSEDE,
                policy=RunNow(),
                tariff=peak_offpeak_tariff(period_s=DAY),
                topology=TOPOLOGIES[0],
                placement="round-robin",
            )


def _plan(name, n_files=8, size=50_000_000, cc=2):
    files = tuple(
        FileInfo(f"{name}-{i}", int(size)) for i in range(n_files)
    )
    return [ChunkPlan(name, files, TransferParams(concurrency=cc))]


class TestChaosWiring:
    def test_scale_bottleneck_requires_topology(self):
        sim = MultiTransferSimulator(XSEDE)
        with pytest.raises(ValueError, match="requires a topology"):
            sim.scale_bottleneck("spine0", 0.5)

    def test_link_scale_targets_named_bottleneck(self):
        sim = MultiTransferSimulator(
            XSEDE, topology="leaf-spine:s=1,l=2,spine=0.7"
        )
        nominal = sim.topology.capacity("spine0")
        action = LinkScale(time=0.0, scale=0.5, bottleneck="spine0")
        detail = action.apply(None, sim)
        assert detail["bottleneck"] == "spine0"
        assert detail["capacity"] == pytest.approx(0.5 * nominal)
        assert sim.topology.capacity("spine0") == pytest.approx(
            0.5 * nominal
        )
        # leaves untouched; a scale=1.0 replay restores the spine
        assert sim.topology.capacity("leaf0") == XSEDE.path.bandwidth
        LinkScale(time=1.0, scale=1.0, bottleneck="spine0").apply(None, sim)
        assert sim.topology.capacity("spine0") == pytest.approx(nominal)

    def test_brownout_propagates_to_late_submits(self, built_engines):
        """The explicit ``_link_scale_active`` flag (not a float
        compare against the 1.0 sentinel): once a brownout has been
        injected, every later submit inherits the *current* factor —
        including after a restore to exactly 1.0."""
        sim = MultiTransferSimulator(XSEDE)
        assert sim._link_scale_active is False
        sim.submit("before", _plan("before"))
        sim.set_link_scale(0.5)
        assert sim._link_scale_active is True
        mid = sim.submit("mid", _plan("mid"))
        sim.set_link_scale(1.0)  # restore to the exact sentinel value
        assert sim._link_scale_active is True
        late = sim.submit("late", _plan("late"))
        del mid, late
        by_name = dict(zip((r.name for r in sim.records()), built_engines))
        assert by_name["mid"].link_scale == 1.0  # restored with the rest
        assert by_name["late"].link_scale == 1.0
        sim.set_link_scale(0.25)
        assert sim.submit("dimmed", _plan("dimmed"))
        assert built_engines[-1].link_scale == 0.25

    def test_global_scale_reaches_topology(self):
        sim = MultiTransferSimulator(XSEDE, topology="single-link")
        nominal = sim.topology.capacity("link")
        sim.set_link_scale(0.5)
        assert sim.topology.capacity("link") == pytest.approx(0.5 * nominal)


class TestSpineCongestionScenario:
    def test_preset_pins_its_topology(self):
        script = scenario_by_name(
            "spine-congestion",
            day_s=900.0,
            seed=5,
            tariff=tariff_by_name("peak-offpeak", period_s=900.0),
            testbed=XSEDE,
            jobs=6,
        )
        assert script.topology == "leaf-spine:s=1,l=2,spine=0.7"
        assert any(
            getattr(action, "bottleneck", None) == "spine0"
            for action in script.actions
        )

    def test_runs_topology_backed_by_default(self):
        result = run_scenario(
            "spine-congestion",
            testbed=XSEDE,
            policy="run-now",
            tariff=tariff_by_name("peak-offpeak", period_s=900.0),
            jobs=6,
            day_s=900.0,
            seed=5,
        )
        assert result.report.topology == "leaf-spine:s=1,l=2,spine=0.7"
        assert result.report.placement == "least-congested"
        assert result.passed, result.verdict


class TestTopologyObserverEvents:
    def test_topology_events_emitted_and_schema_clean(self):
        observer = Observer()
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        run_day(
            requests,
            topology="leaf-spine:s=2,l=2,spine=0.35",
            observer=observer,
        )
        kinds = observer.events.kinds()
        assert kinds.get("job_placed", 0) >= 6
        assert kinds.get("bottleneck_allocated", 0) >= 1
