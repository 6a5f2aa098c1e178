"""The service layer: tariffs, workloads, SLA planning, deferral
policies (and their deadline-safety invariant), and the end-to-end
service simulator — including the paper's economic claim that delayed
transfers are cheaper transfers."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import units
from repro.datasets.files import Dataset
from repro.netsim.multi import TransferTimeout
from repro.obs.observer import Observer
from repro.service import (
    BALANCED,
    CarbonAware,
    DEFAULT_TENANTS,
    ENERGY,
    DeadlineEDF,
    PriceThreshold,
    RunNow,
    SLAClass,
    ServiceSimulator,
    TariffTrace,
    TransferRequest,
    bursty_workload,
    diurnal_workload,
    flat_tariff,
    green_midday_tariff,
    latest_safe_start,
    peak_offpeak_tariff,
    plan_for,
    poisson_workload,
    policy_by_name,
    sla,
    tariff_by_name,
    workload_by_name,
)
from repro.service.tariff import JOULES_PER_KWH

DAY = 600.0  # compressed test day (seconds)


# ----------------------------------------------------------------------
# tariff traces
# ----------------------------------------------------------------------


def two_plateau(period_s: float = 100.0) -> TariffTrace:
    """price 0.10/carbon 0.40 for the first half, 0.02/0.10 after."""
    return TariffTrace(
        name="two",
        points=((0.0, 0.10, 0.40), (50.0, 0.02, 0.10)),
        period_s=period_s,
    )


class TestTariffTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            TariffTrace("bad", points=())
        with pytest.raises(ValueError):
            TariffTrace("bad", points=((5.0, 0.1, 0.3),))  # first != 0
        with pytest.raises(ValueError):
            TariffTrace("bad", points=((0.0, 0.1, 0.3), (0.0, 0.2, 0.3)))
        with pytest.raises(ValueError):
            TariffTrace("bad", points=((0.0, -0.1, 0.3),))
        with pytest.raises(ValueError):
            TariffTrace("bad", points=((0.0, 0.1, 0.3),), period_s=0.0)
        with pytest.raises(ValueError):
            TariffTrace("bad", points=((0.0, 0.1, 0.3), (200.0, 0.2, 0.3)),
                        period_s=100.0)

    def test_plateau_lookup_and_wrap(self):
        trace = two_plateau()
        assert trace.price_at(10.0) == 0.10
        assert trace.price_at(60.0) == 0.02
        assert trace.price_at(160.0) == 0.02  # next period
        assert trace.carbon_at(260.0) == 0.10

    def test_next_change_walks_and_wraps(self):
        trace = two_plateau()
        assert trace.next_change(10.0) == pytest.approx(50.0)
        assert trace.next_change(60.0) == pytest.approx(100.0)
        assert trace.next_change(150.0) == pytest.approx(200.0)
        assert math.isinf(flat_tariff().next_change(0.0))

    def test_means_and_mins(self):
        trace = two_plateau()
        assert trace.mean_price == pytest.approx(0.06)
        assert trace.mean_carbon == pytest.approx(0.25)
        assert trace.min_price == 0.02
        assert trace.min_carbon == 0.10

    def test_cost_integrates_across_boundary(self):
        trace = two_plateau()
        joules = JOULES_PER_KWH  # exactly one kWh
        # 40-60 s straddles the boundary 50/50
        assert trace.cost(joules, 40.0, 20.0) == pytest.approx(0.06)
        # instantaneous pricing uses the plateau in force
        assert trace.cost(joules, 10.0) == pytest.approx(0.10)
        assert trace.carbon(joules, 60.0) == pytest.approx(0.10)
        with pytest.raises(ValueError):
            trace.cost(-1.0, 0.0)

    def test_flat_cost_is_exact(self):
        # one plateau: the interval average is the plateau value itself,
        # not (value * span) / duration rounded twice
        trace = flat_tariff()
        joules = 1.23e7
        for duration in (61.3, 1234.567):
            assert trace.cost(joules, 7200.0, duration) == (
                joules / JOULES_PER_KWH * 0.08
            )
            assert trace.carbon(joules, 7200.0, duration) == (
                joules / JOULES_PER_KWH * 0.37
            )

    def test_run_inside_one_plateau_bills_exactly(self):
        # spans are lengths within the period, never differences of
        # absolute times: a run inside the 00-06 off-peak plateau bills
        # at its price, on any day and up to the plateau's end
        trace = peak_offpeak_tariff()
        joules = 1.23e7
        for start in (7200.0, 86400.0 + 7200.0):
            for duration in (61.3, 1234.567, 21600.0 - 7200.0):
                assert trace.cost(joules, start, duration) == (
                    joules / JOULES_PER_KWH * 0.05
                )
                assert trace.carbon(joules, start, duration) == (
                    joules / JOULES_PER_KWH * 0.32
                )
        # 23:00-01:00 wraps the period through two off-peak plateaus
        assert trace.cost(joules, 82800.0, 7200.0) == joules / JOULES_PER_KWH * 0.05
        # 05:00-07:00 straddles the 06:00 shoulder half and half
        assert trace.cost(joules, 18000.0, 7200.0) == pytest.approx(
            joules / JOULES_PER_KWH * 0.07, rel=1e-12
        )

    def test_next_window_at_or_below(self):
        trace = two_plateau()
        assert trace.next_window_at_or_below(0.02, 10.0) == pytest.approx(50.0)
        # already inside a qualifying window: now
        assert trace.next_window_at_or_below(0.05, 60.0) == pytest.approx(60.0)
        # unreachable threshold
        assert math.isinf(trace.next_window_at_or_below(0.001, 0.0))
        # carbon column
        assert trace.next_window_at_or_below(
            0.10, 10.0, carbon=True
        ) == pytest.approx(50.0)

    def test_scaled_to_preserves_shape(self):
        day = peak_offpeak_tariff()
        short = day.scaled_to(DAY)
        factor = DAY / 86400.0
        for t in (0.0, 30000.0, 50000.0, 80000.0):
            assert short.price_at(t * factor) == day.price_at(t)
        assert short.mean_price == pytest.approx(day.mean_price)

    def test_presets_by_name(self):
        assert tariff_by_name("flat").name == "flat"
        assert tariff_by_name("green-midday", period_s=DAY).period_s == DAY
        with pytest.raises(KeyError):
            tariff_by_name("nope")


# ----------------------------------------------------------------------
# SLA classes and requests
# ----------------------------------------------------------------------


class TestSLAClasses:
    def test_kinds_and_labels(self):
        assert ENERGY.deferrable and not BALANCED.deferrable
        assert sla(0.8).label == "SLA(80%)"
        assert ENERGY.label == "ENERGY"

    def test_validation(self):
        with pytest.raises(ValueError):
            SLAClass("turbo")
        with pytest.raises(ValueError):
            SLAClass("sla")  # needs a level
        with pytest.raises(ValueError):
            sla(1.5)
        with pytest.raises(ValueError):
            SLAClass("energy", level=0.5)  # takes no level

    def test_request_validation(self):
        ds = Dataset.from_sizes([units.MB])
        with pytest.raises(ValueError):
            TransferRequest("", "t", ds)
        with pytest.raises(ValueError):
            TransferRequest("r", "t", ds, submit_time=-1.0)
        with pytest.raises(ValueError):
            TransferRequest("r", "t", ds, submit_time=5.0, deadline=5.0)
        req = TransferRequest("r", "t", ds, submit_time=5.0, deadline=25.0)
        assert req.slack_s() == pytest.approx(20.0)
        assert math.isinf(TransferRequest("q", "t", ds).slack_s())


class TestWorkloads:
    def test_deterministic_under_seed(self):
        a = diurnal_workload(12, day_s=DAY, seed=3, size_scale=0.01)
        b = diurnal_workload(12, day_s=DAY, seed=3, size_scale=0.01)
        assert [(r.name, r.submit_time, r.total_bytes) for r in a] == [
            (r.name, r.submit_time, r.total_bytes) for r in b
        ]
        c = diurnal_workload(12, day_s=DAY, seed=4, size_scale=0.01)
        assert [r.submit_time for r in a] != [r.submit_time for r in c]

    def test_arrivals_inside_day_and_sorted(self):
        for gen in (poisson_workload, diurnal_workload, bursty_workload):
            reqs = gen(20, day_s=DAY, seed=1, size_scale=0.01)
            assert len(reqs) == 20
            times = [r.submit_time for r in reqs]
            assert times == sorted(times)
            assert all(0.0 <= t < DAY for t in times)

    def test_tenant_mix_and_deadlines(self):
        reqs = poisson_workload(60, day_s=DAY, seed=2, size_scale=0.01)
        tenants = {r.tenant for r in reqs}
        assert tenants == {t.name for t in DEFAULT_TENANTS}
        by_name = {t.name: t for t in DEFAULT_TENANTS}
        for r in reqs:
            profile = by_name[r.tenant]
            assert r.sla == profile.sla
            assert r.deadline == pytest.approx(
                r.submit_time + profile.deadline_slack_frac * DAY
            )

    def test_by_name_and_validation(self):
        with pytest.raises(KeyError):
            workload_by_name("nope", 4)
        with pytest.raises(ValueError):
            poisson_workload(0)
        with pytest.raises(ValueError):
            poisson_workload(1, day_s=-1.0)


# ----------------------------------------------------------------------
# SLA-class -> plan mapping
# ----------------------------------------------------------------------


def make_request(name="job", tenant="t", sla_class=BALANCED, submit=0.0,
                 deadline=None, n_files=8, file_mb=5):
    ds = Dataset.from_sizes([file_mb * units.MB] * n_files, name=name)
    return TransferRequest(
        name, tenant, ds, sla=sla_class, submit_time=submit, deadline=deadline
    )


class TestPlanFor:
    def test_algorithm_per_class(self, small_testbed):
        for sla_class, algorithm in (
            (ENERGY, "MinE"),
            (BALANCED, "HTEE-static"),
            (sla(0.8), "SLAEE-static"),
        ):
            jp = plan_for(small_testbed, make_request(sla_class=sla_class))
            assert jp.algorithm == algorithm
            assert jp.total_bytes == 40 * units.MB
            assert jp.planned_channels >= 1
            assert jp.est_duration_s > 0 and jp.est_energy_j > 0

    def test_sla_concurrency_tracks_level(self, small_testbed):
        lo = plan_for(small_testbed, make_request(sla_class=sla(0.25)))
        hi = plan_for(small_testbed, make_request(sla_class=sla(1.0)))
        assert hi.planned_channels >= lo.planned_channels
        # reference concurrency is 4 -> full SLA plans 4 channels
        assert hi.planned_channels == small_testbed.sla_reference_concurrency

    def test_bad_budget(self, small_testbed):
        with pytest.raises(ValueError):
            plan_for(small_testbed, make_request(), max_channels=0)


# ----------------------------------------------------------------------
# deferral policies
# ----------------------------------------------------------------------


class TestSchedulerPolicies:
    def test_run_now_never_defers(self):
        trace = peak_offpeak_tariff(period_s=DAY)
        req = make_request(sla_class=ENERGY, submit=DAY * 0.55,
                           deadline=DAY * 0.99)
        d = RunNow().schedule(req, 10.0, trace)
        assert d.release_time == req.submit_time
        assert not d.deferred
        assert d.priority == req.submit_time

    def test_edf_priority_is_deadline(self):
        trace = flat_tariff()
        tight = make_request(name="tight", submit=0.0, deadline=50.0)
        loose = make_request(name="loose", submit=0.0, deadline=500.0)
        none = make_request(name="none")
        policy = DeadlineEDF()
        assert policy.schedule(tight, 1.0, trace).priority < \
            policy.schedule(loose, 1.0, trace).priority
        assert math.isinf(policy.schedule(none, 1.0, trace).priority)

    def test_price_threshold_defers_to_offpeak(self):
        trace = peak_offpeak_tariff(period_s=DAY)
        peak_t = DAY * (13.0 / 24.0)  # inside the 12-20 h peak
        offpeak_t = DAY * (22.0 / 24.0)
        req = make_request(sla_class=ENERGY, submit=peak_t,
                           deadline=peak_t + 0.9 * DAY)
        d = PriceThreshold().schedule(req, 1.0, trace)
        assert d.deferred and d.reason == "peak-price"
        assert d.release_time == pytest.approx(offpeak_t)
        assert trace.price_at(d.release_time) == trace.min_price

    def test_non_deferrable_classes_run_now(self):
        trace = peak_offpeak_tariff(period_s=DAY)
        peak_t = DAY * 0.55
        for sla_class in (BALANCED, sla(0.8)):
            req = make_request(sla_class=sla_class, submit=peak_t,
                               deadline=peak_t + 0.4 * DAY)
            for policy in (PriceThreshold(), CarbonAware()):
                d = policy.schedule(req, 1.0, trace)
                assert d.release_time == req.submit_time
                assert not d.deferred

    def test_already_cheap_no_deferral(self):
        trace = peak_offpeak_tariff(period_s=DAY)
        night = DAY * 0.1  # off-peak already
        req = make_request(sla_class=ENERGY, submit=night,
                           deadline=night + 0.5 * DAY)
        d = PriceThreshold().schedule(req, 1.0, trace)
        assert d.release_time == req.submit_time and not d.deferred

    def test_carbon_aware_chases_clean_not_cheap(self):
        trace = green_midday_tariff(period_s=DAY)
        morning = DAY * (8.0 / 24.0)  # 0.09 $ / 0.40 kg plateau
        solar = DAY * (10.0 / 24.0)   # 0.08 $ / 0.18 kg plateau
        req = make_request(sla_class=ENERGY, submit=morning,
                           deadline=morning + 0.9 * DAY)
        d = CarbonAware().schedule(req, 1.0, trace)
        assert d.deferred and d.reason == "carbon"
        assert d.release_time == pytest.approx(solar)

    def test_deadline_safety_invariant(self):
        """No policy ever defers a feasible job past its latest safe
        start — over a grid of submit times, deadlines and durations."""
        traces = (
            peak_offpeak_tariff(period_s=DAY),
            green_midday_tariff(period_s=DAY),
        )
        policies = (PriceThreshold(), CarbonAware(), RunNow(), DeadlineEDF())
        for trace in traces:
            for frac in (0.05, 0.3, 0.55, 0.7, 0.95):
                submit = DAY * frac
                for slack in (0.05, 0.2, 0.5, 0.9):
                    deadline = submit + slack * DAY
                    for est in (0.5, 5.0, 50.0, 200.0):
                        req = make_request(sla_class=ENERGY, submit=submit,
                                           deadline=deadline)
                        for policy in policies:
                            d = policy.schedule(req, est, trace)
                            assert d.release_time >= submit
                            safe = latest_safe_start(req, est, policy.safety)
                            if safe >= submit:  # feasible at all
                                assert d.release_time <= safe + 1e-9

    def test_infeasible_deadline_release_clamps_to_submit(self):
        """When even starting now can't meet the deadline, the policy
        must not make it worse by waiting."""
        trace = peak_offpeak_tariff(period_s=DAY)
        submit = DAY * 0.55
        req = make_request(sla_class=ENERGY, submit=submit,
                           deadline=submit + 1.0)
        d = PriceThreshold().schedule(req, est_duration_s=100.0, tariff=trace)
        assert d.release_time == req.submit_time

    def test_policy_by_name(self):
        assert isinstance(policy_by_name("run-now"), RunNow)
        assert isinstance(policy_by_name("carbon-aware"), CarbonAware)
        with pytest.raises(KeyError):
            policy_by_name("nope")


# ----------------------------------------------------------------------
# the service simulator
# ----------------------------------------------------------------------


class TestServiceSimulator:
    def _simulator(self, testbed, **kwargs):
        defaults = dict(
            policy=RunNow(), tariff=flat_tariff(period_s=DAY),
            max_concurrent_jobs=4,
        )
        defaults.update(kwargs)
        return ServiceSimulator(testbed, **defaults)

    def test_end_to_end_accounting(self, small_testbed):
        reqs = [
            make_request(name="a", tenant="t1", submit=0.0),
            make_request(name="b", tenant="t2", sla_class=ENERGY, submit=5.0),
        ]
        report = self._simulator(small_testbed).run(reqs)
        assert len(report.jobs) == 2
        for job in report.jobs:
            assert job.finished
            assert job.energy_j > 0 and job.cost_usd > 0 and job.kg_co2 > 0
            assert job.completed_at > job.admitted_at >= job.submitted_at
        assert report.total_bytes == sum(j.total_bytes for j in report.jobs)
        assert report.makespan_s >= max(j.completed_at for j in report.jobs) - 1.0
        # flat tariff: dollars are exactly energy x rate
        flat = flat_tariff()
        for job in report.jobs:
            assert job.cost_usd == pytest.approx(
                job.energy_j / JOULES_PER_KWH * flat.price_at(0.0), rel=1e-9
            )

    def test_cap_serializes_and_accrues_queue_wait(self, small_testbed):
        reqs = [make_request(name=f"j{i}", submit=0.0) for i in range(2)]
        report = self._simulator(
            small_testbed, max_concurrent_jobs=1
        ).run(reqs)
        first, second = sorted(report.jobs, key=lambda j: j.admitted_at)
        assert second.admitted_at >= first.completed_at - 0.2
        assert second.queue_wait_s > 0
        assert report.mean_queue_wait_s > 0

    def test_edf_admission_order(self, small_testbed):
        reqs = [
            make_request(name="loose", submit=0.0, deadline=500.0),
            make_request(name="tight", submit=0.0, deadline=50.0),
        ]
        report = self._simulator(
            small_testbed, policy=DeadlineEDF(), max_concurrent_jobs=1
        ).run(reqs)
        jobs = {j.name: j for j in report.jobs}
        assert jobs["tight"].admitted_at < jobs["loose"].admitted_at

    def test_per_tenant_fairness(self, small_testbed):
        reqs = [
            make_request(name="a1", tenant="a", submit=0.0),
            make_request(name="a2", tenant="a", submit=0.0),
            make_request(name="b1", tenant="b", submit=0.0),
        ]
        report = self._simulator(
            small_testbed, max_concurrent_jobs=2, max_per_tenant=1
        ).run(reqs)
        jobs = {j.name: j for j in report.jobs}
        # tenant b's job is not starved behind tenant a's second job
        assert jobs["b1"].admitted_at == pytest.approx(0.0, abs=0.2)
        assert jobs["a2"].admitted_at > jobs["a1"].admitted_at

    def test_deferral_saves_dollars_with_zero_misses(self, small_testbed):
        """The acceptance claim, in miniature: at a peak/off-peak
        tariff, PriceThreshold bills strictly fewer dollars than
        RunNow and misses no deadline."""
        tariff = peak_offpeak_tariff(period_s=DAY)
        peak_t = DAY * (13.0 / 24.0)
        reqs = [
            make_request(name="archive", tenant="archive", sla_class=ENERGY,
                         submit=peak_t, deadline=peak_t + 0.9 * DAY),
            make_request(name="sync", tenant="analytics", submit=peak_t,
                         deadline=peak_t + 0.4 * DAY),
        ]
        reports = {}
        for policy in (RunNow(), PriceThreshold()):
            reports[policy.name] = self._simulator(
                small_testbed, policy=policy, tariff=tariff
            ).run(reqs)
        cheap = reports["price-threshold"]
        base = reports["run-now"]
        assert cheap.total_cost_usd < base.total_cost_usd
        assert cheap.deadline_miss_rate == 0.0
        assert base.deadline_miss_rate == 0.0
        assert cheap.deferred_jobs == 1
        archive = next(j for j in cheap.jobs if j.name == "archive")
        assert archive.deferral_reason == "peak-price"
        assert tariff.price_at(archive.admitted_at) == tariff.min_price
        # deferral delays money, not joules (both runs move the bytes)
        assert cheap.total_bytes == base.total_bytes

    def test_deterministic_report(self, small_testbed):
        reqs = poisson_workload(6, day_s=DAY, seed=11, size_scale=0.003)
        dumps = []
        for _ in range(2):
            report = self._simulator(
                small_testbed, policy=PriceThreshold(),
                tariff=peak_offpeak_tariff(period_s=DAY),
            ).run(reqs)
            dumps.append(json.dumps(report.to_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_deadline_miss_recorded(self, small_testbed):
        reqs = [
            make_request(name="doomed", submit=0.0, deadline=0.5,
                         n_files=20, file_mb=10)
        ]
        observer = Observer()
        report = self._simulator(small_testbed, observer=observer).run(reqs)
        assert report.jobs[0].deadline_missed
        assert report.deadline_miss_rate == 1.0
        assert observer.metrics.counter("service.deadline_misses").value == 1
        assert len(observer.events.filter(kind="deadline_missed")) == 1

    def test_observer_event_lifecycle(self, small_testbed):
        tariff = peak_offpeak_tariff(period_s=DAY)
        peak_t = DAY * 0.55
        reqs = [
            make_request(name="defer-me", sla_class=ENERGY, submit=peak_t,
                         deadline=peak_t + 0.9 * DAY),
            make_request(name="now", submit=1.0),
        ]
        observer = Observer()
        self._simulator(
            small_testbed, policy=PriceThreshold(), tariff=tariff,
            observer=observer,
        ).run(reqs)
        kinds = observer.events.kinds()
        assert kinds["job_submitted"] == 2
        assert kinds["job_admitted"] == 2
        assert kinds["job_completed"] == 2
        assert kinds["job_deferred"] == 1
        observer.events.validate()
        assert observer.metrics.counter("service.jobs_completed").value == 2
        deferred = observer.events.filter(kind="job_deferred")[0]
        assert deferred.detail["job"] == "defer-me"
        assert deferred.detail["reason"] == "peak-price"

    def test_timeout_raises(self, small_testbed):
        reqs = [make_request(name="slow", n_files=20, file_mb=10)]
        with pytest.raises(TransferTimeout, match="slow"):
            self._simulator(small_testbed).run(reqs, max_time=0.5)

    def test_duplicate_names_rejected(self, small_testbed):
        reqs = [make_request(name="dup"), make_request(name="dup")]
        with pytest.raises(ValueError, match="duplicate"):
            self._simulator(small_testbed).run(reqs)

    def test_invalid_caps_rejected(self, small_testbed):
        with pytest.raises(ValueError):
            self._simulator(small_testbed, max_concurrent_jobs=0)
        with pytest.raises(ValueError):
            self._simulator(small_testbed, max_per_tenant=0)

    def test_per_tenant_breakdown_sums_to_totals(self, small_testbed):
        reqs = [
            make_request(name="x", tenant="t1"),
            make_request(name="y", tenant="t1", submit=2.0),
            make_request(name="z", tenant="t2", submit=4.0),
        ]
        report = self._simulator(small_testbed).run(reqs)
        per = report.per_tenant
        assert set(per) == {"t1", "t2"}
        assert per["t1"]["jobs"] == 2 and per["t2"]["jobs"] == 1
        assert sum(row["cost_usd"] for row in per.values()) == pytest.approx(
            report.total_cost_usd
        )
        assert sum(row["kwh"] for row in per.values()) == pytest.approx(
            report.total_energy_j / JOULES_PER_KWH
        )

    def test_render_and_to_dict(self, small_testbed):
        report = self._simulator(small_testbed).run([make_request(name="r")])
        text = report.render()
        assert "Service day" in text and "run-now" in text
        payload = report.to_dict()
        json.dumps(payload)  # JSON-safe
        assert payload["jobs"] == 1
        assert payload["job_results"][0]["name"] == "r"


# ----------------------------------------------------------------------
# fleet TOU tariff integration
# ----------------------------------------------------------------------


class TestFleetTariffSchedule:
    def test_job_class_start_hour(self, small_testbed, small_dataset):
        from repro.analysis.projection import JobClass, annual_projection

        with pytest.raises(ValueError):
            JobClass("bad", lambda: small_dataset, 1.0, start_hour=24.0)

        def fleet_at(hour):
            [report] = annual_projection(
                small_testbed,
                [JobClass("job", lambda: small_dataset, 2.0, start_hour=hour)],
                tariff=peak_offpeak_tariff(),
                max_channels=2,
                policies=["mine"],
            )
            return report

        night, peak = fleet_at(2.0), fleet_at(13.0)
        assert night.annual_energy_kwh == pytest.approx(peak.annual_energy_kwh)
        assert night.annual_cost_dollars < peak.annual_cost_dollars
        assert night.annual_kg_co2 < peak.annual_kg_co2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestServiceCLI:
    def test_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "service", "--jobs", "4", "--day", "900",
            "--workload", "steady", "--policy", "price-threshold",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["policy"] == "price-threshold"
        assert payload["jobs"] == 4
        assert len(payload["job_results"]) == 4
        assert payload["deadline_miss_rate"] == 0.0
        capsys.readouterr()

    def test_events_flag(self, capsys):
        from repro.cli import main

        code = main([
            "service", "--jobs", "2", "--day", "600",
            "--workload", "steady", "--events",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "job_submitted" in captured.out

    def test_unknown_preset_exits_2(self, capsys):
        from repro.cli import main

        assert main(["service", "--policy", "nope"]) == 2
        assert main(["service", "--workload", "nope"]) == 2
        assert main(["service", "--tariff", "nope"]) == 2
        capsys.readouterr()

    def test_fleet_tariff_flag(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--tariff", "nope"]) == 2
        capsys.readouterr()


def test_importing_the_service_loads_no_harness():
    """The service layer stands apart from the paper harness: a fresh
    interpreter importing ``repro.service`` loads no ``repro.harness``
    and no ``repro.netenergy`` module."""
    src = Path(repro.__file__).resolve().parents[1]
    code = (
        "import sys, repro.service; print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.harness', 'repro.netenergy'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"
