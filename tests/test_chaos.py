"""Chaos & SLO harness: scenario determinism, fault consistency
between the fast path and the dt-grid, recovery hooks, the SLO
oracle's burn-rate semantics, and the satellite regressions
(percentile-of-nothing, fleet tenant re-averaging, mid-file channel
resume)."""

import json
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

import pytest

from repro import units
from repro.chaos import (
    AmbientTraffic,
    ChannelCut,
    LinkScale,
    SCENARIO_PRESETS,
    SLOBudget,
    SLORule,
    ScenarioScript,
    ServerOutage,
    TariffSwap,
    run_scenario,
    scenario_by_name,
    strip_wall,
)
from repro.datasets.files import Dataset, FileInfo
from repro.netsim.disk import ParallelDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.engine import ChunkPlan
from repro.netsim.link import NetworkPath
from repro.netsim.multi import MultiTransferSimulator
from repro.netsim.params import TransferParams
from repro.obs.observer import Observer
from repro.power.coefficients import CoefficientSet
from repro.service.fleet import FleetReport, ShardResult
from repro.service.requests import BALANCED, TransferRequest
from repro.service.scheduler import RunNow, policy_by_name
from repro.service.simulate import (
    JobResult,
    ServiceReport,
    ServiceSimulator,
    _percentile,
)
from repro.service.tariff import tariff_by_name
from repro.testbeds.specs import Testbed as TestbedSpec
from repro.testbeds.specs import testbed_by_name as _testbed_by_name

XSEDE = _testbed_by_name("xsede")
DAY = 900.0
TARIFF = tariff_by_name("peak-offpeak", period_s=DAY)

#: One shared kwargs set for scenario runs: small enough for CI, big
#: enough that faults land while jobs are in flight.
RUN_KW = dict(testbed=XSEDE, tariff=TARIFF, jobs=6, day_s=DAY, seed=5)


def _pack_json(result, include_jobs=True) -> str:
    return json.dumps(
        strip_wall(result.to_dict(include_jobs=include_jobs)),
        sort_keys=True,
    )


@pytest.fixture
def slow_testbed() -> TestbedSpec:
    """Link-bound two-server-per-site path: jobs run long enough for
    mid-transfer fault injection, and one server per side can die."""
    server = ServerSpec(
        name="host", cores=8, tdp_watts=100.0, nic_rate=units.gbps(1),
        disk=ParallelDisk(
            per_accessor_rate=100 * units.MB, array_rate=800 * units.MB
        ),
        per_channel_rate=60 * units.MB, core_rate=400 * units.MB,
        per_file_overhead=0.0,
    )
    site = EndSystem("site", server, 2)
    return TestbedSpec(
        name="SlowPair",
        path=NetworkPath(
            bandwidth=units.gbps(1), rtt=units.ms(5),
            tcp_buffer=16 * units.MB, protocol_efficiency=1.0,
            congestion_knee=64,
        ),
        source=site,
        destination=site,
        coefficients=CoefficientSet(),
        dataset_factory=lambda: Dataset.from_sizes([50 * units.MB] * 20),
        engine_dt=0.1,
    )


def _plan(name: str, n_files=20, size=50 * units.MB, cc=2) -> list[ChunkPlan]:
    files = tuple(FileInfo(f"{name}-{i}", int(size)) for i in range(n_files))
    return [ChunkPlan(name, files, TransferParams(concurrency=cc))]


# ----------------------------------------------------------------------
# satellite 1: percentile-of-nothing
# ----------------------------------------------------------------------


class TestPercentileRegression:
    def test_empty_percentile_is_none(self):
        assert _percentile([], 50.0) is None
        assert _percentile([], 95.0) is None

    def test_nonempty_percentile_still_works(self):
        assert _percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_all_miss_day_reports_na_not_zero(self):
        """A truncated day where nothing finished must render its
        slowdown percentiles as n/a, not a perfect-looking 0.00."""
        result = run_scenario(
            "brownout", policy="run-now", max_time=2.0, **RUN_KW
        )
        report = result.report
        assert report.truncated
        assert report.finished_jobs == 0
        assert report.p50_slowdown is None
        assert report.p95_slowdown is None
        rendered = report.render()
        assert "n/a" in rendered
        assert "TRUNCATED" in rendered


# ----------------------------------------------------------------------
# actions: validation + tariff scaling
# ----------------------------------------------------------------------


class TestActions:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkScale(time=-1.0, scale=0.5)
        with pytest.raises(ValueError):
            LinkScale(time=0.0, scale=0.0)
        with pytest.raises(ValueError):
            AmbientTraffic(time=0.0, streams=-1.0)
        with pytest.raises(ValueError):
            ServerOutage(time=0.0, side="up", index=0, downtime=10.0)
        with pytest.raises(ValueError):
            ServerOutage(time=0.0, side="src", index=0, downtime=0.0)
        with pytest.raises(ValueError):
            ChannelCut(time=0.0, per_job=0)

    def test_tariff_scaled(self):
        spiked = TARIFF.scaled(price_factor=3.0, carbon_factor=2.0)
        for (o0, p0, c0), (o1, p1, c1) in zip(TARIFF.points, spiked.points):
            assert o1 == o0
            assert p1 == pytest.approx(3.0 * p0)
            assert c1 == pytest.approx(2.0 * c0)
        assert spiked.name != TARIFF.name
        with pytest.raises(ValueError):
            TARIFF.scaled(price_factor=-1.0)

    def test_scenario_actions_must_be_sorted(self):
        with pytest.raises(ValueError):
            ScenarioScript(
                name="x", description="",
                actions=(LinkScale(time=10.0, scale=0.5),
                         LinkScale(time=5.0, scale=1.0)),
                slo=SLOBudget("x", (SLORule("miss_rate", 1.0),)),
            )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            scenario_by_name(
                "meteor-strike", day_s=DAY, seed=1, tariff=TARIFF,
                testbed=XSEDE,
            )


# ----------------------------------------------------------------------
# tentpole: scenario determinism + fast-vs-grid under faults
# ----------------------------------------------------------------------


class TestScenarioDeterminism:
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
    def test_same_seed_byte_identical(self, scenario):
        a = run_scenario(scenario, policy="run-now", **RUN_KW)
        b = run_scenario(scenario, policy="run-now", **RUN_KW)
        assert _pack_json(a) == _pack_json(b)

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
    def test_fast_matches_grid_under_faults(self, scenario):
        fast = run_scenario(scenario, policy="run-now", fast=True, **RUN_KW)
        grid = run_scenario(scenario, policy="run-now", fast=False, **RUN_KW)
        fr, gr = fast.report, grid.report
        assert len(fr.jobs) == len(gr.jobs)
        for a, b in zip(fr.jobs, gr.jobs):
            assert a.name == b.name
            assert a.admitted_at == b.admitted_at
            assert a.completed_at == b.completed_at
        rel = lambda x, y: abs(x - y) / max(abs(y), 1e-12)  # noqa: E731
        assert rel(fr.total_energy_j, gr.total_energy_j) <= 1e-9
        assert rel(fr.total_cost_usd, gr.total_cost_usd) <= 1e-9
        assert fr.makespan_s == gr.makespan_s

    def test_fleet_inline_matches_process_pool(self):
        kw = dict(RUN_KW, shards=2, jobs=8)
        inline = run_scenario(
            "traffic-surge", policy="run-now", workers=1, **kw
        )
        pooled = run_scenario(
            "traffic-surge", policy="run-now", workers=2, **kw
        )
        assert _pack_json(inline, include_jobs=False) == _pack_json(
            pooled, include_jobs=False
        )

    def test_different_seed_changes_the_timeline(self):
        a = scenario_by_name("crash-storm", day_s=DAY, seed=1,
                             tariff=TARIFF, testbed=XSEDE)
        b = scenario_by_name("crash-storm", day_s=DAY, seed=2,
                             tariff=TARIFF, testbed=XSEDE)
        assert [x.time for x in a.actions] != [x.time for x in b.actions]

    def test_every_preset_has_faults_or_extras(self):
        for name in SCENARIO_PRESETS:
            script = scenario_by_name(name, day_s=DAY, seed=5,
                                      tariff=TARIFF, testbed=XSEDE)
            assert script.actions or script.extra_requests
            assert script.slo.rules


# ----------------------------------------------------------------------
# intervention timing: both drivers apply at the same grid point, once
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Probe:
    time: float
    kind: ClassVar[str] = "probe"

    def apply(self, service, sim) -> dict:
        return {"at": sim.time}


class TestInterventionTiming:
    @pytest.mark.parametrize("fast", [True, False])
    def test_applied_once_at_a_grid_point(self, fast, slow_testbed):
        observer = Observer()
        service = ServiceSimulator(
            slow_testbed, policy=policy_by_name("run-now"),
            tariff=tariff_by_name("flat", period_s=DAY),
            observer=observer, fast=fast,
        )
        request = TransferRequest(
            name="big", tenant="t",
            dataset=Dataset.from_sizes([50 * units.MB] * 40), sla=BALANCED,
        )
        service.run([request], interventions=(_Probe(time=5.05),))
        fired = observer.events.filter(kind="fault_injected")
        assert len(fired) == 1
        at = fired[0].detail["detail"]["at"]
        # applied at the first grid point >= 5.05 (dt = 0.1)
        assert at == pytest.approx(5.1, abs=1e-9)

    def test_fast_and_grid_see_the_same_instant(self, slow_testbed):
        ats = []
        for fast in (True, False):
            observer = Observer()
            service = ServiceSimulator(
                slow_testbed, policy=policy_by_name("run-now"),
                tariff=tariff_by_name("flat", period_s=DAY),
                observer=observer, fast=fast,
            )
            request = TransferRequest(
                name="big", tenant="t",
                dataset=Dataset.from_sizes([50 * units.MB] * 40),
                sla=BALANCED,
            )
            service.run([request], interventions=(_Probe(time=7.77),))
            fired = observer.events.filter(kind="fault_injected")
            ats.append(fired[0].detail["detail"]["at"])
        assert ats[0] == ats[1]

    def test_tariff_swap_stays_in_its_run(self):
        """A swapped tariff reprices its own run only: the next plain
        run on the same simulator bills what a fresh one bills."""
        from repro.service.requests import workload_by_name
        from repro.service.tariff import flat_tariff

        testbed = _testbed_by_name("didclab")
        requests = workload_by_name(
            "steady", 4, day_s=600.0, seed=1, size_scale=600.0 / 86400.0
        )

        def service() -> ServiceSimulator:
            return ServiceSimulator(
                testbed, policy=policy_by_name("run-now"),
                tariff=flat_tariff(period_s=600.0),
            )

        reused = service()
        swapped = reused.run(
            requests, interventions=(TariffSwap(0.0, flat_tariff(price=1.0)),)
        )
        again = reused.run(requests)
        fresh = service().run(requests)
        assert swapped.total_cost_usd == pytest.approx(1.31e-05, rel=0.01)
        assert fresh.total_cost_usd == pytest.approx(1.05e-06, rel=0.01)
        assert again.total_cost_usd == fresh.total_cost_usd
        assert reused.tariff.name == "flat"


# ----------------------------------------------------------------------
# satellite 2: mid-file channel-cut resume, fast vs fixed-dt
# ----------------------------------------------------------------------


class TestChannelCutResume:
    @pytest.mark.parametrize("restart_file", [False, True])
    def test_fast_matches_grid_through_mid_file_cut(
        self, restart_file, slow_testbed
    ):
        """A channel cut mid-transfer (resuming the in-flight file
        with ``restart_file=False``, or restarting it) must leave the
        fast path bit-consistent with the grid loop."""
        reports = []
        for fast in (True, False):
            service = ServiceSimulator(
                slow_testbed, policy=policy_by_name("run-now"),
                tariff=tariff_by_name("flat", period_s=DAY), fast=fast,
            )
            request = TransferRequest(
                name="big", tenant="t",
                dataset=Dataset.from_sizes([50 * units.MB] * 40),
                sla=BALANCED,
            )
            cut = ChannelCut(time=5.0, per_job=1, restart_file=restart_file)
            reports.append(service.run([request], interventions=(cut,)))
        fr, gr = reports
        assert fr.jobs[0].completed_at == gr.jobs[0].completed_at
        rel = abs(fr.total_energy_j - gr.total_energy_j) / max(
            gr.total_energy_j, 1e-12
        )
        assert rel <= 1e-9

    def test_restarting_the_file_costs_time(self, slow_testbed):
        """Losing mid-file progress must never finish earlier than
        resuming it."""
        done = {}
        for restart in (False, True):
            service = ServiceSimulator(
                slow_testbed, policy=policy_by_name("run-now"),
                tariff=tariff_by_name("flat", period_s=DAY),
            )
            request = TransferRequest(
                name="big", tenant="t",
                dataset=Dataset.from_sizes([200 * units.MB] * 8),
                sla=BALANCED,
            )
            cut = ChannelCut(time=6.0, per_job=2, restart_file=restart)
            done[restart] = service.run(
                [request], interventions=(cut,)
            ).jobs[0].completed_at
        assert done[True] >= done[False]


# ----------------------------------------------------------------------
# recovery: stranded jobs and the re-admission hook
# ----------------------------------------------------------------------


class TestRecovery:
    def test_multi_readmit_stranded(self, slow_testbed, built_engines):
        sim = MultiTransferSimulator(slow_testbed)
        sim.submit("a", _plan("a"))
        sim.run_until(3.0)
        [engine] = built_engines
        assert engine.channels
        sim.inject_channel_failures(per_job=len(engine.channels))
        assert not engine.channels
        assert sim.readmit_stranded() == ["a"]
        assert engine.channels
        records = sim.run()
        assert all(r.finished for r in records)

    def test_service_reroutes_stranded_job(self, slow_testbed):
        observer = Observer()
        service = ServiceSimulator(
            slow_testbed, policy=policy_by_name("run-now"),
            tariff=tariff_by_name("flat", period_s=DAY), observer=observer,
        )
        request = TransferRequest(
            name="big", tenant="t",
            dataset=Dataset.from_sizes([50 * units.MB] * 40), sla=BALANCED,
        )
        cut = ChannelCut(time=5.0, per_job=64)
        report = service.run([request], interventions=(cut,))
        assert report.jobs[0].finished
        assert observer.metrics.counter("chaos.jobs_readmitted").value >= 1
        assert observer.metrics.counter("chaos.faults_injected").value == 1

    def test_policy_can_opt_out_of_rerouting(self, slow_testbed):
        class NoReroute(RunNow):
            reroute_on_failure = False

        service = ServiceSimulator(
            slow_testbed, policy=NoReroute(),
            tariff=tariff_by_name("flat", period_s=DAY),
        )
        request = TransferRequest(
            name="big", tenant="t",
            dataset=Dataset.from_sizes([50 * units.MB] * 40), sla=BALANCED,
        )
        cut = ChannelCut(time=5.0, per_job=64)
        report = service.run(
            [request], interventions=(cut,), max_time=120.0,
            on_timeout="report",
        )
        assert report.truncated
        assert not report.jobs[0].finished

    def test_server_outage_refuses_last_server(self, slow_testbed):
        sim = MultiTransferSimulator(slow_testbed)
        sim.submit("a", _plan("a"))
        sim.run_until(1.0)
        sim.inject_server_failure("src", 0, downtime=30.0)
        with pytest.raises(RuntimeError):
            sim.inject_server_failure("src", 1, downtime=30.0)

    def test_jobs_admitted_during_outage_inherit_it(self, slow_testbed, built_engines):
        sim = MultiTransferSimulator(slow_testbed)
        # "a" is long-running, so the coordinator is still stepping
        # (and admitting arrivals) when "late" shows up at t=2.
        sim.submit("a", _plan("a"))
        sim.run_until(1.0)
        sim.inject_server_failure("src", 0, downtime=500.0)
        sim.submit("late", _plan("late", n_files=4), arrival_time=2.0)
        sim.run_until(5.0)
        late_engine = dict(zip((r.name for r in sim.records()), built_engines))["late"]
        assert ("src", 0) in late_engine.down_servers


# ----------------------------------------------------------------------
# SLO oracle
# ----------------------------------------------------------------------


@dataclass
class _StubReport:
    """Duck-typed report slice the oracle reads."""

    deadline_miss_rate: float = 0.0
    p95_slowdown: Optional[float] = 1.0
    total_cost_usd: float = 1.0
    total_bytes: int = 10**9
    unfinished_jobs: int = 0
    jobs: list = field(default_factory=lambda: [None] * 10)
    mean_queue_wait_s: float = 1.0


class TestSLOOracle:
    @pytest.mark.parametrize("metric,stub,budget", [
        ("miss_rate", _StubReport(deadline_miss_rate=0.8), 0.5),
        ("p95_slowdown", _StubReport(p95_slowdown=100.0), 40.0),
        ("cost_per_gb", _StubReport(total_cost_usd=20.0), 10.0),
        ("unfinished_rate", _StubReport(unfinished_jobs=5), 0.25),
        ("mean_queue_wait_s", _StubReport(mean_queue_wait_s=1000.0), 100.0),
    ])
    def test_each_rule_can_fail(self, metric, stub, budget):
        verdict = SLOBudget(
            "fixture", (SLORule(metric, budget),)
        ).evaluate(stub)
        assert not verdict.passed
        (check,) = verdict.breaches
        assert check.metric == metric
        assert check.burn > 1.0

    @pytest.mark.parametrize("stub,metric", [
        (_StubReport(p95_slowdown=None), "p95_slowdown"),
        (_StubReport(total_bytes=0), "cost_per_gb"),
        (_StubReport(jobs=[]), "unfinished_rate"),
    ])
    def test_unmeasurable_metric_is_infinite_burn(self, stub, metric):
        verdict = SLOBudget(
            "fixture", (SLORule(metric, 10.0),)
        ).evaluate(stub)
        assert not verdict.passed
        assert math.isinf(verdict.max_burn)
        assert verdict.to_dict()["checks"][0]["burn"] is None

    def test_passing_budget(self):
        verdict = SLOBudget(
            "fixture",
            (SLORule("miss_rate", 0.5), SLORule("cost_per_gb", 10.0)),
        ).evaluate(_StubReport(deadline_miss_rate=0.1))
        assert verdict.passed
        assert verdict.max_burn <= 1.0

    def test_breaches_reach_the_observer(self):
        observer = Observer()
        SLOBudget("fixture", (SLORule("miss_rate", 0.5),)).evaluate(
            _StubReport(deadline_miss_rate=1.0), observer=observer,
            time=42.0,
        )
        events = observer.events.filter(kind="slo_breach")
        assert len(events) == 1
        assert events[0].detail["metric"] == "miss_rate"
        assert observer.metrics.counter("chaos.slo_breaches").value == 1

    def test_bad_rules_rejected(self):
        with pytest.raises(ValueError):
            SLORule("latency_p999", 1.0)
        with pytest.raises(ValueError):
            SLORule("miss_rate", 0.0)
        with pytest.raises(ValueError):
            SLOBudget("dup", (SLORule("miss_rate", 0.5),
                              SLORule("miss_rate", 0.6)))
        with pytest.raises(ValueError):
            SLOBudget("empty", ())

    def test_truncated_day_fails_its_budget(self):
        result = run_scenario(
            "brownout", policy="run-now", max_time=2.0, **RUN_KW
        )
        assert result.report.truncated
        assert not result.passed
        assert math.isinf(result.verdict.max_burn)


# ----------------------------------------------------------------------
# satellite 3: fleet per-tenant re-averaging
# ----------------------------------------------------------------------


def _job(name, tenant, *, submitted=0.0, admitted=None, completed=None):
    return JobResult(
        name=name, tenant=tenant, sla="BALANCED", algorithm="HTEE",
        submitted_at=submitted, released_at=submitted,
        admitted_at=admitted, completed_at=completed,
        total_bytes=units.MB, energy_j=1.0, cost_usd=0.0, kg_co2=0.0,
    )


def _shard(name, report):
    return ShardResult(name=name, weight=1.0, routed_jobs=len(report.jobs),
                       stolen_in=0, stolen_out=0, wall_s=0.0, report=report)


class TestFleetTenantMerge:
    def _report(self, jobs):
        return ServiceReport(testbed="t", policy="run-now", tariff="flat",
                             jobs=jobs, makespan_s=100.0)

    def test_disjoint_tenants_merge_without_nan(self):
        """Shards with disjoint tenants — including one whose job was
        never admitted — must merge to finite per-tenant waits."""
        shard_a = self._report([
            _job("a1", "alpha", admitted=10.0, completed=20.0),
            _job("a2", "alpha", submitted=0.0, admitted=30.0,
                 completed=40.0),
        ])
        shard_b = self._report([
            _job("b1", "beta", admitted=5.0, completed=6.0),
            _job("z1", "zero"),  # never admitted
        ])
        fleet = FleetReport(routing="tenant-hash", policy="run-now",
                            tariff="flat",
                            shards=[_shard("s0", shard_a),
                                    _shard("s1", shard_b)])
        tenants = fleet.per_tenant
        assert set(tenants) == {"alpha", "beta", "zero"}
        assert tenants["alpha"]["mean_queue_wait_s"] == pytest.approx(20.0)
        assert tenants["alpha"]["admitted"] == 2
        assert tenants["beta"]["mean_queue_wait_s"] == pytest.approx(5.0)
        assert tenants["zero"]["admitted"] == 0
        assert tenants["zero"]["mean_queue_wait_s"] == 0.0
        for row in tenants.values():
            assert math.isfinite(row["mean_queue_wait_s"])

    def test_cross_shard_wait_is_admitted_weighted(self):
        """Re-averaging across shards must weight by each shard's
        *admitted* count, not its job count."""
        shard_a = self._report([
            _job("a1", "alpha", admitted=10.0, completed=20.0),
            _job("a2", "alpha", admitted=20.0, completed=30.0),
            _job("a3", "alpha"),  # submitted, never admitted
        ])
        shard_b = self._report([
            _job("b1", "alpha", admitted=60.0, completed=70.0),
        ])
        fleet = FleetReport(routing="tenant-hash", policy="run-now",
                            tariff="flat",
                            shards=[_shard("s0", shard_a),
                                    _shard("s1", shard_b)])
        # waits 10, 20 (shard a) and 60 (shard b): mean over the three
        # admitted jobs, not diluted by the never-admitted one.
        assert fleet.per_tenant["alpha"]["mean_queue_wait_s"] == (
            pytest.approx(30.0)
        )


# ----------------------------------------------------------------------
# flash-crowd extras + CLI
# ----------------------------------------------------------------------


class TestFlashCrowd:
    def test_extras_are_disjoint_and_in_window(self):
        script = scenario_by_name("flash-crowd", day_s=DAY, seed=5,
                                  tariff=TARIFF, testbed=XSEDE)
        names = [r.name for r in script.extra_requests]
        assert len(names) == len(set(names))
        assert all(r.tenant == "flash" for r in script.extra_requests)
        assert all(0 <= r.submit_time <= DAY for r in script.extra_requests)

    def test_flash_tenant_shows_up_in_the_report(self):
        result = run_scenario("flash-crowd", policy="run-now", **RUN_KW)
        assert "flash" in result.report.per_tenant


class TestChaosCLI:
    def test_single_cell_json(self, capsys):
        from repro.cli import main

        code = main(["chaos", "-s", "brownout", "-p", "run-now",
                     "--jobs", "4", "--day", "600", "--json", "-"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["results"][0]["scenario"] == "brownout"
        assert "verdict" in payload["results"][0]

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["chaos", "-s", "nope"]) == 2
