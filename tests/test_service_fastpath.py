"""The service fast path: event-horizon macro-stepping must be an
*exact* re-implementation of the dt-grid reference loop.

The contract under test (DESIGN.md §5e): with ``fast=True`` (the
default) the service day jumps from service event to service event —
arrival, deferred release, completion, tariff plateau boundary — and
bills each jump's energy against the single plateau it provably lies
in. The grid loop (``fast=False``) is kept as the golden reference;
every admission decision and every job timestamp must be *bit-equal*
between the two, and energy/cost/carbon equal to fp round-off.
"""

import math

import pytest

from repro import units
from repro.datasets.files import Dataset
from repro.obs.observer import Observer
from repro.service import (
    BALANCED,
    CarbonAware,
    DeadlineEDF,
    PriceThreshold,
    RunNow,
    ServiceSimulator,
    TariffTrace,
    TransferRequest,
    diurnal_workload,
    flat_tariff,
    green_midday_tariff,
    peak_offpeak_tariff,
    plan_for,
    poisson_workload,
)
from repro.service.policies import plan_cache_clear, plan_cache_info
from repro.service.simulate import ServiceReport
from repro.service.tariff import JOULES_PER_KWH

DAY = 600.0  # compressed test day (seconds)

POLICIES = {
    "run-now": RunNow,
    "deadline-edf": DeadlineEDF,
    "price-threshold": PriceThreshold,
    "carbon-aware": CarbonAware,
}
TARIFFS = {
    "peak-offpeak": peak_offpeak_tariff,
    "green-midday": green_midday_tariff,
}

#: fields that must be *bit-equal* between fast and grid
EXACT_FIELDS = ("submitted_at", "released_at", "admitted_at", "completed_at")
#: fields that must agree to fp round-off (different summation order)
CLOSE_FIELDS = ("energy_j", "cost_usd", "kg_co2")
REL_TOL = 1e-9


def run_both(testbed, requests, *, policy=None, tariff=None, **kwargs):
    """One workload through the fast and the grid loop; returns
    ``(fast_report, grid_report)`` with the plan cache cleared before
    each run so memoization cannot couple the two."""
    reports = {}
    for fast in (True, False):
        plan_cache_clear()
        sim = ServiceSimulator(
            testbed,
            policy=policy if policy is not None else RunNow(),
            tariff=tariff if tariff is not None else peak_offpeak_tariff(period_s=DAY),
            fast=fast,
            **kwargs,
        )
        reports[fast] = sim.run(requests)
    return reports[True], reports[False]


def assert_equivalent(fast: ServiceReport, grid: ServiceReport) -> None:
    assert [j.name for j in fast.jobs] == [j.name for j in grid.jobs]
    for jf, jg in zip(fast.jobs, grid.jobs, strict=True):
        for attr in EXACT_FIELDS:
            assert getattr(jf, attr) == getattr(jg, attr), (jf.name, attr)
        for attr in CLOSE_FIELDS:
            a, b = getattr(jf, attr), getattr(jg, attr)
            assert a == pytest.approx(b, rel=REL_TOL, abs=1e-15), (jf.name, attr)
    assert fast.makespan_s == grid.makespan_s
    for attr in ("total_energy_j", "total_cost_usd", "total_kg_co2"):
        a, b = getattr(fast, attr), getattr(grid, attr)
        assert a == pytest.approx(b, rel=REL_TOL, abs=1e-15), attr


# ----------------------------------------------------------------------
# fast vs grid: every policy x every shaped tariff
# ----------------------------------------------------------------------


class TestFastGridEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("tariff_name", sorted(TARIFFS))
    def test_policies_and_tariffs(self, small_testbed, policy_name, tariff_name):
        requests = diurnal_workload(10, day_s=DAY, seed=7, size_scale=0.02)
        fast, grid = run_both(
            small_testbed,
            requests,
            policy=POLICIES[policy_name](),
            tariff=TARIFFS[tariff_name](period_s=DAY),
            max_concurrent_jobs=3,
        )
        assert_equivalent(fast, grid)

    def test_contended_slots_and_tenant_caps(self, small_testbed):
        """Admission order under pressure — the heap-based fast
        admission must pick exactly the jobs the sorted-scan picks."""
        requests = poisson_workload(12, day_s=DAY, seed=3, size_scale=0.02)
        fast, grid = run_both(
            small_testbed,
            requests,
            policy=DeadlineEDF(),
            max_concurrent_jobs=2,
            max_per_tenant=1,
        )
        assert_equivalent(fast, grid)

    def test_boundary_straddling_job(self, small_testbed):
        """A job whose transfer spans a tariff edge must be billed on
        both plateaus by the fast path, not flat-rated at its start."""
        tariff = TariffTrace(
            name="two",
            points=((0.0, 0.10, 0.40), (50.0, 0.02, 0.10)),
            period_s=DAY,
        )
        ds = Dataset.from_sizes([20 * units.MB] * 16, name="straddle")
        req = TransferRequest(
            name="straddle", tenant="t", dataset=ds, sla=BALANCED,
            submit_time=49.0,
        )
        fast, grid = run_both(small_testbed, [req], tariff=tariff)
        assert_equivalent(fast, grid)
        job = fast.jobs[0]
        # the job really does straddle the 50 s edge...
        assert job.admitted_at < 50.0 < job.completed_at
        # ...and is visibly cheaper than an all-at-0.10 flat rate.
        assert job.cost_usd < job.energy_j / JOULES_PER_KWH * 0.10

    def test_plateau_edge_epsilon_sliver(self, small_testbed):
        """A tariff edge that is *not* on the dt grid: the step whose
        start sits in the epsilon sliver below the edge must be billed
        at the old plateau in both loops (regression for the
        ``plateau()`` / ``next_change`` epsilon mismatch)."""
        # 50.03 is not a multiple of engine_dt=0.1.
        tariff = TariffTrace(
            name="offgrid",
            points=((0.0, 0.10, 0.40), (50.03, 0.02, 0.10)),
            period_s=DAY,
        )
        ds = Dataset.from_sizes([20 * units.MB] * 16, name="sliver")
        req = TransferRequest(
            name="sliver", tenant="t", dataset=ds, sla=BALANCED,
            submit_time=49.0,
        )
        fast, grid = run_both(small_testbed, [req], tariff=tariff)
        assert_equivalent(fast, grid)

    def test_plateau_consistent_at_epsilon_edge(self):
        """``plateau()`` must price and bound from the *same* segment
        even when ``t`` sits within ``next_change``'s 1e-12 guard of an
        edge — otherwise the fast path crosses the edge at the old
        price."""
        tariff = peak_offpeak_tariff(period_s=DAY)
        for edge in (150.0, 300.0, 500.0, 550.0):
            t = edge - 5e-13  # inside next_change's epsilon guard
            price, carbon, boundary = tariff.plateau(t)
            assert price == tariff.price_at(t)
            assert carbon == tariff.carbon_at(t)
            assert t < boundary <= edge + 1e-9
        # a flat trace never changes: the horizon must be open-ended
        flat = TariffTrace(name="one", points=((0.0, 0.08, 0.37),))
        assert flat.plateau(123.0) == (0.08, 0.37, math.inf)

    @pytest.mark.parametrize("gap", [1.1, 1.3, 2.1])
    def test_admission_never_precedes_submission(self, small_testbed, gap):
        """Submit times off the dt grid: ``now`` is a sum of dt steps
        and can sit a round-off below a submit time the ingest
        tolerance already let in. The admission stamp must not fall
        before the submission, in either loop."""
        requests = [
            TransferRequest(
                name=f"j{i:02d}", tenant="t",
                dataset=Dataset.from_sizes(
                    [20 * units.MB] * (4 + i % 5), name=f"j{i:02d}"
                ),
                sla=BALANCED, submit_time=i * gap,
            )
            for i in range(12)
        ]
        fast, grid = run_both(
            small_testbed, requests, tariff=flat_tariff(period_s=DAY),
            max_concurrent_jobs=2,
        )
        assert_equivalent(fast, grid)
        for report in (fast, grid):
            assert all(j.queue_wait_s >= 0 for j in report.jobs)
            assert report.mean_queue_wait_s >= 0

    def test_grid_mode_opt_out(self, small_testbed):
        """``fast=False`` really runs the reference loop (macro
        counters untouched), ``fast=True`` really macro-steps."""
        requests = diurnal_workload(6, day_s=DAY, seed=5, size_scale=0.02)
        for fast in (True, False):
            plan_cache_clear()
            observer = Observer()
            sim = ServiceSimulator(
                small_testbed,
                policy=RunNow(),
                tariff=peak_offpeak_tariff(period_s=DAY),
                observer=observer,
                fast=fast,
            )
            sim.run(requests)
            macro = observer.metrics.counter("service.macro_steps").value
            if fast:
                assert macro > 0
                kinds = observer.events.kinds()
                assert kinds.get("service_macro_step", 0) > 0
            else:
                assert macro == 0


# ----------------------------------------------------------------------
# plan memoization
# ----------------------------------------------------------------------


def _request(name="job", sla_class=BALANCED, n_files=8, file_mb=5):
    ds = Dataset.from_sizes([file_mb * units.MB] * n_files, name=name)
    return TransferRequest(name=name, tenant="t", dataset=ds, sla=sla_class)


class TestPlanCache:
    def setup_method(self):
        plan_cache_clear()

    def teardown_method(self):
        plan_cache_clear()

    def test_hit_returns_identical_numerics(self, small_testbed):
        a = plan_for(small_testbed, _request("a"))
        info = plan_cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)
        b = plan_for(small_testbed, _request("b"))  # same shape, new name
        info = plan_cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)
        # the hit wraps *this* request but shares the cached chunk plans
        assert b.request.name == "b"
        assert b.plans is a.plans
        assert b.est_duration_s == a.est_duration_s
        assert b.est_energy_j == a.est_energy_j

    def test_distinct_shapes_and_classes_miss(self, small_testbed):
        plan_for(small_testbed, _request("a"))
        plan_for(small_testbed, _request("bigger", n_files=9))
        plan_for(small_testbed, _request("cls", sla_class=BALANCED), max_channels=2)
        info = plan_cache_info()
        assert info["misses"] == 3 and info["hits"] == 0

    def test_bypass_and_invalidation(self, small_testbed):
        plan_for(small_testbed, _request("a"))
        plan_for(small_testbed, _request("a"), use_cache=False)
        info = plan_cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)  # bypass untracked
        plan_cache_clear()
        info = plan_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0,
                        "maxsize": info["maxsize"]}
        plan_for(small_testbed, _request("a"))
        assert plan_cache_info()["misses"] == 1  # really recomputed

    def test_observer_counts_service_cache_traffic(self, small_testbed):
        requests = [
            TransferRequest(
                name=f"j{i}", tenant="t",
                dataset=Dataset.from_sizes([5 * units.MB] * 4, name=f"j{i}"),
                sla=BALANCED, submit_time=float(i),
            )
            for i in range(4)
        ]
        observer = Observer()
        sim = ServiceSimulator(
            small_testbed,
            policy=RunNow(),
            tariff=peak_offpeak_tariff(period_s=DAY),
            observer=observer,
        )
        sim.run(requests)
        snap = observer.metrics.snapshot()
        assert snap["counters"]["service.plan_cache_misses"] == 1
        assert snap["counters"]["service.plan_cache_hits"] == 3


# ----------------------------------------------------------------------
# workload dataset pools
# ----------------------------------------------------------------------


class TestDatasetPool:
    def test_pool_reuses_shapes(self):
        reqs = poisson_workload(40, day_s=DAY, seed=9, size_scale=0.02,
                                dataset_pool=4)
        shapes = {tuple(f.size for f in r.dataset.files) for r in reqs}
        tenants = {r.tenant for r in reqs}
        # at most 4 shapes per tenant, and far fewer than 40 overall
        assert len(shapes) <= 4 * len(tenants)
        assert all("-pool" in r.dataset.name for r in reqs)

    def test_pool_is_deterministic(self):
        a = poisson_workload(10, day_s=DAY, seed=9, size_scale=0.02,
                             dataset_pool=3)
        b = poisson_workload(10, day_s=DAY, seed=9, size_scale=0.02,
                             dataset_pool=3)
        for x, y in zip(a, b, strict=True):
            assert x.dataset.name == y.dataset.name
            assert [f.size for f in x.dataset.files] == [
                f.size for f in y.dataset.files
            ]

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(4, dataset_pool=0)


# ----------------------------------------------------------------------
# report aggregates are cached (and still correct)
# ----------------------------------------------------------------------


class TestReportCaching:
    def test_render_and_to_dict_agree_with_recomputation(self, small_testbed):
        requests = diurnal_workload(6, day_s=DAY, seed=5, size_scale=0.02)
        plan_cache_clear()
        sim = ServiceSimulator(
            small_testbed,
            policy=RunNow(),
            tariff=peak_offpeak_tariff(period_s=DAY),
        )
        report = sim.run(requests)
        # first access computes and caches ...
        payload = report.to_dict()
        text = report.render()
        # ... and the cached values still equal a by-hand recomputation
        assert payload["total_kwh"] == sum(
            j.energy_j for j in report.jobs
        ) / JOULES_PER_KWH
        assert payload["total_cost_usd"] == sum(j.cost_usd for j in report.jobs)
        assert payload["jobs"] == len(report.jobs)
        assert "Service day" in text
        assert payload["p95_slowdown"] == report.p95_slowdown

    def test_aggregates_computed_once(self, small_testbed):
        requests = diurnal_workload(4, day_s=DAY, seed=5, size_scale=0.02)
        plan_cache_clear()
        sim = ServiceSimulator(
            small_testbed,
            policy=RunNow(),
            tariff=peak_offpeak_tariff(period_s=DAY),
        )
        report = sim.run(requests)
        first = report.per_tenant
        assert report.per_tenant is first          # cached: same object
        assert report.slowdowns is report.slowdowns
        # cached_property stores on the instance dict
        assert "per_tenant" in report.__dict__
        assert "total_energy_j" not in report.__dict__
        _ = report.total_energy_j
        assert "total_energy_j" in report.__dict__
