"""The benchmark's three simulated days and the fingerprint of a day.

Each workload is a pre-generated day of arrivals replayed in simulated
time (an open loop with no wall-clock pacing): the seed fixes the
requests, and the simulator receives only those requests. Everything
runs inline in one process and one thread.

Importing this module imports the simulator (``repro``); the runner
times that import as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import repro.netsim.tcp
from repro.service import ServiceSimulator, policy_by_name, tariff_by_name
from repro.service.fleet import FleetSimulator
from repro.service.policies import plan_cache_clear, plan_cache_info
from repro.service.requests import (
    BALANCED,
    DEFAULT_TENANTS,
    ENERGY,
    TenantProfile,
    TransferRequest,
    bursty_workload,
    diurnal_workload,
    sla,
)
from repro.testbeds.specs import testbed_by_name
from repro.topo.alloc import alloc_cache_clear, alloc_cache_info
from repro.units import GB

#: Chunky-archive tenants: a handful of large files per job, the shape
#: the engine's event-horizon macro-steps are built for.
SCALE_TENANTS: tuple[TenantProfile, ...] = (
    TenantProfile(
        "backup", share=0.5, sla=ENERGY,
        mean_size=40 * GB, deadline_slack_frac=0.90,
        file_fracs=(1 / 6, 1 / 2),
    ),
    TenantProfile(
        "replica", share=0.3, sla=BALANCED,
        mean_size=24 * GB, deadline_slack_frac=0.35,
        file_fracs=(1 / 8, 1 / 3),
    ),
    TenantProfile(
        "media", share=0.2, sla=sla(0.8),
        mean_size=16 * GB, deadline_slack_frac=0.20,
        file_fracs=(1 / 4, 1 / 2),
    ),
)

FLEET_TOPOLOGY = "leaf-spine:s=2,l=6,spine=0.4"

#: Relative tolerance on energy and cost: the repo's fast-vs-grid
#: contract. Counts, bytes and timestamps must be bit-equal.
REL_TOL = 1e-9

#: Layers a single-link service day never reaches.
NO_TOPOLOGY_OR_FLEET = (
    "alloc.refill_calls", "alloc.refill_s", "alloc.hit_frac",
    "place.calls", "place.self_s",
    "fleet.route_s", "fleet.merge_s", "fleet.steals",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark day: its input shape and how to build it."""

    name: str
    jobs: int
    day_s: float
    #: input shape, recorded in every run header
    shape: dict
    #: per-layer metrics the traced run predicts to be zero / positive
    must_be_zero: tuple[str, ...]
    must_be_positive: tuple[str, ...]
    requests: Callable[[int, int, float], list[TransferRequest]]
    simulator: Callable[[float, bool], object]

    def make_requests(self, seed: int, jobs: int | None = None) -> list[TransferRequest]:
        jobs = self.jobs if jobs is None else jobs
        return self.requests(jobs, seed, self.day_for(jobs))

    def make_simulator(self, jobs: int | None = None, *, fast: bool = True):
        return self.simulator(self.day_for(self.jobs if jobs is None else jobs), fast)

    def day_for(self, jobs: int) -> float:
        """Simulated day length; scales with the job count so a reduced
        day keeps the same arrival rate."""
        return self.day_s * jobs / self.jobs


def _service(policy: str, day_s: float, fast: bool) -> ServiceSimulator:
    return ServiceSimulator(
        testbed_by_name("xsede"),
        policy=policy_by_name(policy),
        tariff=tariff_by_name("peak-offpeak", period_s=day_s),
        max_concurrent_jobs=4,
        fast=fast,
    )


def _fleet(day_s: float, fast: bool) -> FleetSimulator:
    return FleetSimulator(
        testbed_by_name("xsede"),
        policy=policy_by_name("run-now"),
        tariff=tariff_by_name("peak-offpeak", period_s=day_s),
        topology=FLEET_TOPOLOGY,
        routing="topology-aware",
        workers=1,
        fast=fast,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chunky-day",
            jobs=1000,
            day_s=86400.0,
            shape={
                "simulator": "ServiceSimulator", "testbed": "xsede",
                "arrivals": "diurnal", "tenants": "SCALE_TENANTS",
                "size_scale": 2.0, "dataset_pool": 32,
                "policy": "run-now", "tariff": "peak-offpeak",
                "topology": None, "max_concurrent_jobs": 4,
            },
            must_be_zero=NO_TOPOLOGY_OR_FLEET,
            must_be_positive=("engine.advance_macro_s", "plan.hit_frac"),
            requests=lambda jobs, seed, day_s: diurnal_workload(
                jobs, day_s=day_s, seed=seed, tenants=SCALE_TENANTS,
                size_scale=2.0, dataset_pool=32,
            ),
            simulator=lambda day_s, fast: _service("run-now", day_s, fast),
        ),
        Workload(
            name="spray-deferral",
            jobs=2000,
            day_s=36000.0,
            shape={
                "simulator": "ServiceSimulator", "testbed": "xsede",
                "arrivals": "diurnal", "tenants": "DEFAULT_TENANTS",
                "size_scale": 1 / 24, "dataset_pool": None,
                "policy": "price-threshold", "tariff": "peak-offpeak",
                "topology": None, "max_concurrent_jobs": 4,
            },
            must_be_zero=NO_TOPOLOGY_OR_FLEET + ("plan.hit_frac",),
            must_be_positive=("engine.advance_k1_s", "sched.deferred"),
            requests=lambda jobs, seed, day_s: diurnal_workload(
                jobs, day_s=day_s, seed=seed, tenants=DEFAULT_TENANTS,
                size_scale=1 / 24,
            ),
            simulator=lambda day_s, fast: _service(
                "price-threshold", day_s, fast
            ),
        ),
        Workload(
            name="topo-fleet",
            jobs=500,
            day_s=8640.0,
            shape={
                "simulator": "FleetSimulator(workers=1)", "testbed": "xsede",
                "arrivals": "bursty", "tenants": "DEFAULT_TENANTS",
                "size_scale": 0.1, "dataset_pool": None,
                "policy": "run-now", "tariff": "peak-offpeak",
                "topology": FLEET_TOPOLOGY, "routing": "topology-aware",
                "shards": 15, "max_concurrent_jobs": 4,
            },
            must_be_zero=(),
            must_be_positive=(
                "alloc.refill_calls", "alloc.hit_frac", "place.calls",
                "fleet.route_s", "fleet.merge_s",
            ),
            requests=lambda jobs, seed, day_s: bursty_workload(
                jobs, day_s=day_s, seed=seed, tenants=DEFAULT_TENANTS,
                size_scale=0.1,
            ),
            simulator=_fleet,
        ),
    )
}


def reset_caches() -> None:
    """Empty every memo cache through its public clear function, so each
    repetition does identical work."""
    plan_cache_clear()
    alloc_cache_clear()
    for obj in vars(repro.netsim.tcp).values():
        clear = getattr(obj, "cache_clear", None)
        if clear is not None:
            clear()


def cache_hit_fracs() -> tuple[float, float]:
    """``(plan, alloc)`` cache hit fractions since the last reset."""
    plan = plan_cache_info()
    alloc = alloc_cache_info()
    plan_lookups = plan["hits"] + plan["misses"]
    alloc_lookups = alloc.hits + alloc.misses
    return (
        plan["hits"] / plan_lookups if plan_lookups else 0.0,
        alloc.hits / alloc_lookups if alloc_lookups else 0.0,
    )


def job_results(report) -> list:
    """Every job of a service or fleet report, in report order."""
    shards = getattr(report, "shards", None)
    if shards is None:
        return list(report.jobs)
    return [job for shard in shards for job in shard.report.jobs]


def fingerprint(report) -> dict:
    """What a day produced: counts and bytes, a digest of every job's
    submit/admit/complete timestamps (float ``repr`` is exact, so equal
    digests mean bit-equal times), and total energy and cost."""
    jobs = job_results(report)
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(
            repr((job.name, job.submitted_at, job.admitted_at,
                  job.completed_at)).encode()
        )
    return {
        "jobs": len(jobs),
        "finished": sum(1 for job in jobs if job.finished),
        "bytes": sum(job.total_bytes for job in jobs),
        "times_sha256": digest.hexdigest(),
        "energy_j": report.total_energy_j,
        "cost_usd": report.total_cost_usd,
    }


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between two fingerprints (empty when they agree)."""
    problems = [
        f"{key}: {got[key]!r} != {want[key]!r}"
        for key in ("jobs", "finished", "bytes", "times_sha256")
        if got[key] != want[key]
    ]
    for key in ("energy_j", "cost_usd"):
        scale = max(abs(got[key]), abs(want[key]), 1e-300)
        if abs(got[key] - want[key]) / scale > REL_TOL:
            problems.append(f"{key}: {got[key]!r} != {want[key]!r}")
    return problems


def invariants(report, requests: list[TransferRequest]) -> list[str]:
    """Checks that hold for any correct day, reference or not: every job
    finished, bytes delivered equal bytes submitted, and each job's
    timestamps are ordered."""
    jobs = job_results(report)
    problems = []
    if len(jobs) != len(requests):
        problems.append(f"{len(jobs)} jobs reported for {len(requests)} requests")
    submitted = sum(r.total_bytes for r in requests)
    delivered = sum(job.total_bytes for job in jobs if job.finished)
    if delivered != submitted:
        problems.append(f"bytes delivered {delivered} != submitted {submitted}")
    for job in jobs:
        if not job.finished:
            problems.append(f"{job.name} unfinished")
        elif not job.submitted_at <= job.admitted_at < job.completed_at:
            problems.append(f"{job.name} timestamps out of order")
    for key in ("energy_j", "cost_usd"):
        value = getattr(report, f"total_{key}")
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"total {key} = {value!r}")
    return problems
