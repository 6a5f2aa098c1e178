"""Fleet-scale sharded transfer service: many links, one report.

One :class:`~repro.service.simulate.ServiceSimulator` serves one
link's day well, but a provider operating at millions of jobs per day
runs a *fleet* of links. This module shards that scale: a
:class:`FleetSimulator` routes the day's requests across one service
shard per link (each an unmodified ``ServiceSimulator``), executes the
shards inline or behind a spawn-safe :class:`ProcessPoolExecutor`, and
folds the per-shard :class:`~repro.service.simulate.ServiceReport`\\ s
and observer summaries (via :func:`repro.obs.metrics.merge_summaries`)
into a single :class:`FleetReport` with fleet-wide and per-tenant /
per-shard kWh, dollars, kgCO2, deadline-miss rate and slowdown
percentiles.

Routing is deterministic (load-balancer heuristics, no RNG):

* ``tenant-hash`` — ``crc32(tenant) mod shards``: tenant affinity, the
  classic consistent-dispatch default;
* ``least-loaded`` — argmin of weight-relative backlog bytes at
  dispatch time (psim's least-loaded job placement);
* ``weighted`` — tenant hash mapped through the cumulative shard
  weights, so capacity-weighted shards draw proportional traffic;
* ``round-robin`` — strict rotation;
* ``topology-aware`` — shard = endpoint pair of a shared fabric
  (:func:`topology_pair_shards` carves one picklable per-pair spec per
  leaf/pod pair): the router water-fills every shard's byte backlog
  over the fabric (:func:`repro.topo.alloc.refill`, incremental per
  request), reads the allocator's live ``bottleneck_load``, and sends
  each job to the pair whose worst trunk is least pressured.

All of them compose with **work stealing**: when the chosen shard's
weight-relative backlog exceeds ``steal_threshold`` times the fleet
mean (its admission queue has saturated relative to its fair share),
the job is re-routed to the least-loaded shard at dispatch time —
deterministic, and visible as ``work_stolen`` events.

Warm starts follow psim's ``GContext`` idiom: a run exports every
shard's memoized planning entries (chunk plans plus their
``predict_plan_performance`` duration/energy estimates) as a picklable
:class:`FleetContext`; seeding the next run with it pre-populates each
shard's plan LRU so repeated dataset shapes never pay the
MinE/HTEE/SLAEE math again, across runs and across processes.

Determinism contract: same requests, seed, shard count, routing and
policy knobs → the same routing decisions and bit-identical simulated
quantities in the :class:`FleetReport` (timestamps, admission
decisions, energy/cost/carbon). Wall-clock fields (``wall_s``,
``jobs_per_sec``) measure the real machine and are excluded from the
contract. A single-shard fleet reproduces ``ServiceSimulator``
(``fast=True``) exactly.

(:func:`repro.analysis.projection.annual_projection`, behind ``repro
fleet``, extrapolates one link's measured runs to a year; this module
simulates the fleet's day.)
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import pickle
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro import units
from repro.core.chunks import PartitionPolicy
from repro.obs.metrics import merge_summaries
from repro.obs.observer import Observer
from repro.service.policies import (
    PlanCacheEntry,
    export_plan_cache,
    seed_plan_cache,
)
from repro.service.requests import TransferRequest
from repro.service.scheduler import DeferralPolicy
from repro.service.simulate import (
    Intervention,
    JobResult,
    ServiceReport,
    ServiceSimulator,
    _deadline_miss_rate,
    _fmt_pct,
    _mean_queue_wait_s,
    _per_tenant,
    _percentile,
)
from repro.service.tariff import JOULES_PER_KWH, TariffTrace
from repro.testbeds.specs import Testbed
from repro.topo.alloc import AllocationResult, FlowDemand, refill
from repro.topo.core import (
    Topology,
    _float_param,
    _parse_params,
    build_topology,
)
from repro.units import Joules, Seconds

__all__ = [
    "ROUTING_POLICIES",
    "FleetContext",
    "FleetReport",
    "FleetSimulator",
    "RoutingResult",
    "ShardResult",
    "ShardSpec",
    "route_requests",
    "topology_pair_shards",
]

#: Deterministic dispatch heuristics understood by :func:`route_requests`.
ROUTING_POLICIES = (
    "tenant-hash", "least-loaded", "weighted", "round-robin",
    "topology-aware",
)


def _stable_hash(text: str) -> int:
    """A process-stable 32-bit hash (Python's ``hash`` is salted)."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# shard description and routing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One fleet shard: a named link/testbed with a routing weight.

    ``weight`` scales the shard's fair share under ``least-loaded`` /
    ``weighted`` routing and the work-stealing saturation test (a
    weight-2 shard is expected to carry twice the bytes).

    Under ``topology-aware`` routing a shard is one endpoint pair of a
    shared fabric: ``topology`` is the carved per-pair spec string its
    executor builds (picklable, so ProcessPool dispatch stays
    identity-safe), and ``bottlenecks`` names the fabric trunks the
    router registers the shard's backlog on.
    """

    name: str
    testbed: Testbed
    weight: float = 1.0
    topology: Optional[str] = None
    bottlenecks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard name must be non-empty")
        if not self.weight > 0:
            raise ValueError("shard weight must be > 0")


def topology_pair_shards(
    testbed: Testbed, topology: str
) -> list[ShardSpec]:
    """One shard per endpoint pair of a fleet fabric spec.

    ``leaf-spine:s=S,l=L`` yields ``L*(L-1)/2`` shards (one per
    unordered leaf pair), ``fat-tree:k=K`` one per pod pair. Each
    shard's carved spec keeps the fabric shape but pre-divides the
    shared capacity factors — an endpoint trunk is shared by the
    ``L-1`` (or ``K-1``) pairs touching it, a spine/core by every
    pair — so the independently simulated shards cannot jointly
    over-provision the fabric. ``bottlenecks`` names the pair's two
    endpoint trunks in the *fleet* fabric, which is what the
    topology-aware router registers backlog demand on.
    """
    kind, _, body = topology.partition(":")
    params = _parse_params(body)
    if kind == "leaf-spine":
        spines = int(_float_param(params, "s", 2))
        leaves = int(_float_param(params, "l", 4))
        leaf_f = _float_param(params, "leaf", 1.0)
        spine_f = _float_param(params, "spine", 1.0)
        if params:
            raise ValueError(
                f"unknown leaf-spine parameters: {sorted(params)}"
            )
        pairs = [(a, b) for a in range(leaves) for b in range(a + 1, leaves)]
        return [
            ShardSpec(
                name=f"p{a}-{b}",
                testbed=testbed,
                topology=(
                    f"leaf-spine:s={spines},l={leaves},"
                    f"leaf={leaf_f / (leaves - 1)!r},"
                    f"spine={spine_f / len(pairs)!r},pair={a}-{b}"
                ),
                bottlenecks=(f"leaf{a}", f"leaf{b}"),
            )
            for a, b in pairs
        ]
    if kind == "fat-tree":
        k = int(_float_param(params, "k", 4))
        edge_f = _float_param(params, "edge", 1.0)
        core_f = _float_param(params, "core", 1.0)
        if params:
            raise ValueError(
                f"unknown fat-tree parameters: {sorted(params)}"
            )
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        return [
            ShardSpec(
                name=f"p{a}-{b}",
                testbed=testbed,
                topology=(
                    f"fat-tree:k={k},edge={edge_f / (k - 1)!r},"
                    f"core={core_f / len(pairs)!r},pair={a}-{b}"
                ),
                bottlenecks=(f"pod{a}", f"pod{b}"),
            )
            for a, b in pairs
        ]
    raise ValueError(
        "topology-aware sharding needs a multi-endpoint fabric "
        f"(leaf-spine or fat-tree), got {topology!r}"
    )


@dataclass(frozen=True)
class RoutingResult:
    """Deterministic dispatch outcome: per-shard request lists (in
    fleet submit order) plus stealing accounting."""

    buckets: tuple[tuple[TransferRequest, ...], ...]
    steals: int
    stolen_in: tuple[int, ...]
    stolen_out: tuple[int, ...]


def _check_routing(
    routing: str,
    steal_threshold: Optional[float],
    shards: Sequence[ShardSpec],
    fabric: Optional[Topology],
) -> None:
    """Reject an unknown ``routing``, a ``steal_threshold`` below 1,
    duplicate shard names and — under ``topology-aware`` routing, whose
    ``fabric`` the caller has ensured — shards with missing or unknown
    fabric bottlenecks."""
    if routing not in ROUTING_POLICIES:
        raise ValueError(
            f"unknown routing {routing!r}; known: {', '.join(ROUTING_POLICIES)}"
        )
    if steal_threshold is not None and steal_threshold < 1.0:
        raise ValueError("steal_threshold must be >= 1.0 (or None to disable)")
    names = [spec.name for spec in shards]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate shard names: {sorted(names)}")
    if routing == "topology-aware":
        assert fabric is not None
        known = set(fabric.bottlenecks)
        for spec in shards:
            if not spec.bottlenecks:
                raise ValueError(
                    f"shard {spec.name!r} declares no fabric bottlenecks "
                    "(required for topology-aware routing)"
                )
            unknown = [h for h in spec.bottlenecks if h not in known]
            if unknown:
                raise ValueError(
                    f"shard {spec.name!r} references unknown fabric "
                    f"bottleneck(s): {unknown}"
                )


def route_requests(
    requests: Sequence[TransferRequest],
    shards: Sequence[ShardSpec],
    *,
    routing: str = "tenant-hash",
    steal_threshold: Optional[float] = 4.0,
    observer: Optional[Observer] = None,
    topology: Optional[Topology] = None,
) -> RoutingResult:
    """Assign every request to a shard with the chosen heuristic.

    Requests are dispatched in ``(submit_time, name)`` order — the same
    canonical order :class:`~repro.service.simulate.ServiceSimulator`
    imposes — so the assignment is a pure function of the workload and
    the shard list, independent of caller ordering. Backlog is tracked
    in bytes (scaled by shard weight); with ``steal_threshold`` set, a
    chosen shard whose relative backlog exceeds ``threshold × fleet
    mean`` hands the job to the least-loaded shard instead (work
    stealing at dispatch time, so the decision is deterministic and
    reproducible from the same inputs).

    ``topology-aware`` routing additionally needs the fleet fabric
    ``topology`` and per-shard ``bottlenecks``: each dispatch
    water-fills every backlogged shard's bytes over the fabric
    (incrementally — :func:`repro.topo.alloc.refill` carries the
    previous dispatch's allocation while every grown backlog belongs
    to a bound shard and stays above its level, and otherwise
    re-solves only the interference component that changed), then
    picks the shard whose worst endpoint trunk has the lowest
    ``(bottleneck_load + request bytes) / capacity`` pressure, ties to
    the lowest shard index.
    """
    if not shards:
        raise ValueError("at least one shard is required")
    if routing == "topology-aware" and topology is None:
        raise ValueError(
            "topology-aware routing requires the fleet fabric "
            "(pass topology=...)"
        )
    _check_routing(routing, steal_threshold, shards, topology)
    n = len(shards)
    prev_alloc: Optional[AllocationResult] = None
    weights = np.array([spec.weight for spec in shards], dtype=np.float64)
    total_weight = float(weights.sum())
    cumulative = np.cumsum(weights) / total_weight
    backlog = np.zeros(n, dtype=np.float64)
    buckets: list[list[TransferRequest]] = [[] for _ in range(n)]
    stolen_in = [0] * n
    stolen_out = [0] * n
    steals = 0
    rr = 0
    ordered = sorted(requests, key=lambda r: (r.submit_time, r.name))
    for request in ordered:
        if routing == "tenant-hash":
            chosen = _stable_hash(request.tenant) % n
        elif routing == "weighted":
            u = _stable_hash(request.tenant) / 2**32
            chosen = min(int(np.searchsorted(cumulative, u, side="right")), n - 1)
        elif routing == "round-robin":
            chosen = rr % n
            rr += 1
        elif routing == "topology-aware":
            assert topology is not None
            flows = [
                FlowDemand(spec.name, spec.bottlenecks, float(backlog[i]))
                for i, spec in enumerate(shards)
                if backlog[i] > 0.0
            ]
            prev_alloc = refill(topology, flows, prev_alloc)
            load = prev_alloc.bottleneck_load
            # Worst-trunk pressure first; allocated load saturates at
            # capacity, so ties (a fully loaded fabric) fall back to
            # weight-relative byte backlog, then lowest shard index.
            chosen = 0
            best: tuple[float, float] = (math.inf, math.inf)
            for i, spec in enumerate(shards):
                pressure = max(
                    (load.get(hop, 0.0) + request.total_bytes)
                    / topology.capacity(hop)
                    for hop in spec.bottlenecks
                )
                score = (pressure, float(backlog[i]) / shards[i].weight)
                if score < best:
                    best = score
                    chosen = i
        else:  # least-loaded
            chosen = int(np.argmin(backlog / weights))
        if steal_threshold is not None and n > 1 and backlog[chosen] > 0.0:
            relative = backlog / weights
            mean = float(backlog.sum()) / total_weight
            if float(relative[chosen]) > steal_threshold * mean:
                target = int(np.argmin(relative))
                if target != chosen:
                    if observer is not None:
                        observer.emit(
                            request.submit_time, "work_stolen",
                            job=request.name,
                            from_shard=shards[chosen].name,
                            to_shard=shards[target].name,
                        )
                    stolen_out[chosen] += 1
                    stolen_in[target] += 1
                    steals += 1
                    chosen = target
        buckets[chosen].append(request)
        backlog[chosen] += request.total_bytes
        if observer is not None:
            observer.emit(
                request.submit_time, "job_routed", job=request.name,
                shard=shards[chosen].name,
            )
    return RoutingResult(
        buckets=tuple(tuple(bucket) for bucket in buckets),
        steals=steals,
        stolen_in=tuple(stolen_in),
        stolen_out=tuple(stolen_out),
    )


# ----------------------------------------------------------------------
# warm-start context
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetContext:
    """Portable warm-start context (psim ``GContext`` style).

    Carries the fleet's memoized planning entries — chunk plans plus
    their ``predict_plan_performance`` estimates — in a picklable,
    identity-free form. Seeding a run with a prior similar run's
    context pre-populates every shard's plan LRU, so repeated dataset
    shapes skip the MinE/HTEE/SLAEE math entirely, across processes
    and across runs (see :func:`repro.service.policies.seed_plan_cache`).
    """

    entries: tuple[PlanCacheEntry, ...] = ()
    source: str = ""

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path: Union[Path, str]) -> Path:
        """Pickle the context to ``path`` (plans are plain dataclasses)."""
        path = Path(path)
        with path.open("wb") as handle:
            pickle.dump(self, handle)
        return path

    @classmethod
    def load(cls, path: Union[Path, str]) -> "FleetContext":
        """Unpickle a context written by :meth:`save`."""
        try:
            with Path(path).open("rb") as handle:
                context = pickle.load(handle)
        except (pickle.UnpicklingError, ValueError, EOFError,
                AttributeError, ImportError) as exc:
            raise TypeError(
                f"{path} does not contain a FleetContext: {exc}"
            ) from exc
        if not isinstance(context, cls):
            raise TypeError(f"{path} does not contain a FleetContext")
        return context


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class ShardResult:
    """One shard's executed day plus its dispatch accounting.

    ``wall_s`` is real (machine) execution time of the shard's
    simulation — not simulated seconds — and is excluded from the
    determinism contract.
    """

    name: str
    weight: float
    routed_jobs: int
    stolen_in: int
    stolen_out: int
    wall_s: float
    report: ServiceReport


@dataclass
class FleetReport:
    """Merged fleet-wide view of every shard's service day.

    Aggregates are ``cached_property``\\ s computed once on first
    access (the report is read-only by convention, like
    :class:`~repro.service.simulate.ServiceReport`). Unlike a shard
    report, :meth:`to_dict` carries **no per-job rows** — at fleet
    scale (1M jobs) those belong in the shard reports, not in one JSON
    blob.
    """

    routing: str
    policy: str
    tariff: str
    shards: list[ShardResult] = field(default_factory=list)
    work_steals: int = 0
    #: Real dispatch wall-clock for the whole fleet run (seconds); the
    #: basis of ``jobs_per_sec`` / ``jobs_per_day``. Not simulated
    #: time, therefore outside the determinism contract.
    wall_s: float = 0.0
    #: Merged per-shard observer summaries
    #: (:func:`repro.obs.metrics.merge_summaries` output), or ``None``
    #: when the fleet ran unobserved.
    metrics: Optional[dict] = None

    # -- aggregates (computed once) -------------------------------------

    @cached_property
    def jobs(self) -> list[JobResult]:
        """Every shard's jobs, in shard order."""
        return [job for shard in self.shards for job in shard.report.jobs]

    @cached_property
    def jobs_total(self) -> int:
        return sum(len(shard.report.jobs) for shard in self.shards)

    @cached_property
    def total_bytes(self) -> int:
        return sum(shard.report.total_bytes for shard in self.shards)

    @cached_property
    def total_energy_j(self) -> Joules:
        return sum(shard.report.total_energy_j for shard in self.shards)

    @cached_property
    def total_cost_usd(self) -> float:
        return sum(shard.report.total_cost_usd for shard in self.shards)

    @cached_property
    def total_kg_co2(self) -> float:
        return sum(shard.report.total_kg_co2 for shard in self.shards)

    @cached_property
    def deferred_jobs(self) -> int:
        return sum(shard.report.deferred_jobs for shard in self.shards)

    @cached_property
    def deadline_miss_rate(self) -> float:
        """Misses over jobs that *have* deadlines, fleet-wide."""
        return _deadline_miss_rate(self.jobs)

    @cached_property
    def slowdowns(self) -> list[float]:
        return [s for shard in self.shards for s in shard.report.slowdowns]

    @cached_property
    def p50_slowdown(self) -> Optional[float]:
        """``None`` when no job finished fleet-wide."""
        return _percentile(self.slowdowns, 50.0)

    @cached_property
    def p95_slowdown(self) -> Optional[float]:
        """``None`` when no job finished fleet-wide."""
        return _percentile(self.slowdowns, 95.0)

    @cached_property
    def turnarounds(self) -> list[Seconds]:
        """Per-finished-job submit → complete latency (the tenant-visible
        end-to-end latency, for percentiles)."""
        return [j.turnaround_s for j in self.jobs if j.finished]

    @cached_property
    def p95_turnaround_s(self) -> Optional[Seconds]:
        """``None`` when no job finished fleet-wide."""
        return _percentile(self.turnarounds, 95.0)

    @cached_property
    def truncated(self) -> bool:
        """True when any shard's day was cut off at ``max_time``."""
        return any(shard.report.truncated for shard in self.shards)

    @cached_property
    def unfinished_jobs(self) -> int:
        return sum(shard.report.unfinished_jobs for shard in self.shards)

    @cached_property
    def mean_turnaround_s(self) -> Seconds:
        if not self.turnarounds:
            return 0.0
        return sum(self.turnarounds) / len(self.turnarounds)

    @cached_property
    def mean_queue_wait_s(self) -> Seconds:
        return _mean_queue_wait_s(self.jobs)

    @cached_property
    def makespan_s(self) -> Seconds:
        """Largest shard makespan (shards simulate the same day in
        parallel, so the fleet's day ends with its slowest shard)."""
        return max((s.report.makespan_s for s in self.shards), default=0.0)

    @property
    def jobs_per_sec(self) -> float:
        """Simulated jobs per real second of fleet execution."""
        return self.jobs_total / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def jobs_per_day(self) -> float:
        """Throughput headline: jobs the fleet simulates per real day."""
        return self.jobs_per_sec * 86400.0

    @cached_property
    def per_tenant(self) -> dict[str, dict]:
        """Per-tenant rows over every shard's jobs (the same reduction
        as :attr:`ServiceReport.per_tenant`)."""
        return _per_tenant(self.jobs)

    @cached_property
    def per_shard(self) -> list[dict]:
        """One JSON-safe summary row per shard, in shard order."""
        rows = []
        for shard in self.shards:
            report = shard.report
            rows.append({
                "shard": shard.name,
                "testbed": report.testbed,
                "weight": shard.weight,
                "jobs": len(report.jobs),
                "routed_jobs": shard.routed_jobs,
                "stolen_in": shard.stolen_in,
                "stolen_out": shard.stolen_out,
                "bytes": report.total_bytes,
                "kwh": report.total_energy_j / JOULES_PER_KWH,
                "cost_usd": report.total_cost_usd,
                "kg_co2": report.total_kg_co2,
                "deferred": report.deferred_jobs,
                "deadline_miss_rate": report.deadline_miss_rate,
                "p95_slowdown": report.p95_slowdown,
                "makespan_s": report.makespan_s,
                "truncated": report.truncated,
                "unfinished_jobs": report.unfinished_jobs,
                "wall_s": shard.wall_s,
            })
        return rows

    # -- serialization / rendering --------------------------------------

    def to_dict(self) -> dict:
        """Fleet totals, per-tenant and per-shard rows as a JSON-safe
        dict (no per-job rows — see class docstring)."""
        return {
            "routing": self.routing,
            "policy": self.policy,
            "tariff": self.tariff,
            "shards": len(self.shards),
            "jobs": self.jobs_total,
            "total_bytes": self.total_bytes,
            "total_gb": units.to_GB(self.total_bytes),
            "total_kwh": self.total_energy_j / JOULES_PER_KWH,
            "total_cost_usd": self.total_cost_usd,
            "total_kg_co2": self.total_kg_co2,
            "deferred_jobs": self.deferred_jobs,
            "deadline_miss_rate": self.deadline_miss_rate,
            "p50_slowdown": self.p50_slowdown,
            "p95_slowdown": self.p95_slowdown,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "p95_turnaround_s": self.p95_turnaround_s,
            "mean_turnaround_s": self.mean_turnaround_s,
            "makespan_s": self.makespan_s,
            "truncated": self.truncated,
            "unfinished_jobs": self.unfinished_jobs,
            "work_steals": self.work_steals,
            "wall_s": self.wall_s,
            "jobs_per_sec": self.jobs_per_sec,
            "jobs_per_day": self.jobs_per_day,
            "per_tenant": self.per_tenant,
            "per_shard": self.per_shard,
        }

    def render(self) -> str:
        """The fleet report as an aligned, human-readable block."""
        cutoff = (
            f" (TRUNCATED: {self.unfinished_jobs} unfinished)"
            if self.truncated
            else ""
        )
        turnaround = (
            "n/a"
            if self.p95_turnaround_s is None
            else f"{self.p95_turnaround_s:.0f} s"
        )
        lines = [
            f"Fleet day across {len(self.shards)} shards "
            f"(routing={self.routing}, policy={self.policy}, "
            f"tariff={self.tariff}):",
            f"  {self.jobs_total} jobs, {units.to_GB(self.total_bytes):.1f} GB, "
            f"makespan {self.makespan_s:.0f} s, "
            f"wall {self.wall_s:.1f} s "
            f"({self.jobs_per_sec:.0f} jobs/s, "
            f"{self.jobs_per_day:.3g} jobs/day){cutoff}",
            f"  energy {self.total_energy_j / JOULES_PER_KWH:.3f} kWh -> "
            f"${self.total_cost_usd:.4f}, {self.total_kg_co2:.4f} kgCO2",
            f"  deferred {self.deferred_jobs}, "
            f"deadline misses {self.deadline_miss_rate:.0%}, "
            f"slowdown p50 {_fmt_pct(self.p50_slowdown)} "
            f"/ p95 {_fmt_pct(self.p95_slowdown)}, "
            f"turnaround p95 {turnaround}, "
            f"steals {self.work_steals}",
        ]
        lines.append(
            f"  {'shard':<10s} {'jobs':>7s} {'GB':>9s} {'kWh':>8s} "
            f"{'$':>9s} {'kgCO2':>8s} {'miss':>5s} {'in/out':>7s} {'wall s':>7s}"
        )
        for row in self.per_shard:
            lines.append(
                f"  {row['shard']:<10s} {row['jobs']:>7d} "
                f"{units.to_GB(row['bytes']):>9.1f} {row['kwh']:>8.3f} "
                f"{row['cost_usd']:>9.4f} {row['kg_co2']:>8.4f} "
                f"{row['deadline_miss_rate']:>5.0%} "
                f"{row['stolen_in']:>3d}/{row['stolen_out']:<3d} "
                f"{row['wall_s']:>7.1f}"
            )
        lines.append(
            f"  {'tenant':<10s} {'jobs':>7s} {'GB':>9s} {'kWh':>8s} "
            f"{'$':>9s} {'kgCO2':>8s} {'defer':>5s} {'miss':>4s} {'wait s':>8s}"
        )
        for tenant, row in self.per_tenant.items():
            lines.append(
                f"  {tenant:<10s} {row['jobs']:>7d} "
                f"{units.to_GB(row['bytes']):>9.1f} {row['kwh']:>8.3f} "
                f"{row['cost_usd']:>9.4f} {row['kg_co2']:>8.4f} "
                f"{row['deferred']:>5d} {row['deadline_misses']:>4d} "
                f"{row['mean_queue_wait_s']:>8.0f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# shard execution (process-pool safe)
# ----------------------------------------------------------------------


def _run_shard(payload: dict) -> dict:
    """Execute one shard's service day and return picklable results.

    Top-level (not a closure/method) so a spawn-based
    :class:`ProcessPoolExecutor` can import it; everything it needs
    travels in the payload dict, the shard's unobserved
    :class:`~repro.service.simulate.ServiceSimulator` included. Seeds
    the worker's plan cache from the warm-start entries first, and
    exports the (now warmer) cache back so the parent can accumulate
    context across runs.
    """
    # a run-local copy: interventions mutate the service they hit (a
    # ``TariffSwap`` replaces its tariff), which must not leak into the
    # shard's next run
    simulator: ServiceSimulator = copy.copy(payload["simulator"])
    if payload["warm"]:
        seed_plan_cache(simulator.testbed, payload["warm"])
    if payload["observe"]:
        simulator.observer = Observer()
    start = time.perf_counter()  # repro: noqa[RPL002] — real shard wall-clock, reported outside the determinism contract
    report = simulator.run(
        payload["requests"],
        max_time=payload["max_time"],
        interventions=payload["interventions"],
        on_timeout=payload["on_timeout"],
    )
    wall_s = time.perf_counter() - start  # repro: noqa[RPL002] — see above
    observer = simulator.observer
    return {
        "report": report,
        "wall_s": wall_s,
        "summary": observer.summary() if observer is not None else None,
        "export": export_plan_cache(simulator.testbed),
    }


# ----------------------------------------------------------------------
# the fleet dispatcher
# ----------------------------------------------------------------------


class FleetSimulator:
    """Routes a day of tenant traffic across service shards and merges
    the results.

    Construct either with one ``testbed`` replicated ``shards`` times
    (a homogeneous fleet of identical links, shards named ``s0..sN``)
    or with explicit ``shard_specs`` (heterogeneous links and weights).
    Each shard carries its own unobserved
    :class:`~repro.service.simulate.ServiceSimulator`, built here from
    the service knobs (``policy``, ``tariff``, ``max_concurrent_jobs``,
    ``max_per_tenant``, ``max_channels``, ``partition_policy``,
    ``fast``, ``topology``, ``placement``, ``placement_seed``) and so
    validated at construction; a shard's own ``topology`` spec wins
    over the fleet's. A one-shard fleet reproduces the plain service
    exactly.

    ``workers`` bounds real parallelism: ``None`` picks
    ``min(shards, cpu_count)``; ``1`` runs shards inline (no process
    pool, no pickling); ``>1`` uses a :class:`ProcessPoolExecutor`,
    which requires picklable testbeds/policies/tariffs. Results are
    identical either way — shards are independent simulations.

    After :meth:`run`, ``last_context`` holds the accumulated
    :class:`FleetContext` (input context merged with every shard's
    exported plan entries, newest winning) ready to seed the next run.
    """

    def __init__(
        self,
        testbed: Optional[Testbed] = None,
        *,
        policy: DeferralPolicy,
        tariff: TariffTrace,
        shards: int = 8,
        shard_specs: Optional[Sequence[ShardSpec]] = None,
        routing: str = "tenant-hash",
        steal_threshold: Optional[float] = 4.0,
        max_concurrent_jobs: int = 4,
        max_per_tenant: Optional[int] = None,
        max_channels: int = 4,
        partition_policy: PartitionPolicy = PartitionPolicy(),
        observer: Optional[Observer] = None,
        fast: bool = True,
        workers: Optional[int] = None,
        warm_context: Optional[FleetContext] = None,
        topology: Optional[str] = None,
        placement: str = "least-congested",
        placement_seed: int = 0,
    ) -> None:
        if (testbed is None) == (shard_specs is None):
            raise ValueError("provide exactly one of testbed or shard_specs")
        if shard_specs is not None:
            self.shards: list[ShardSpec] = list(shard_specs)
            if not self.shards:
                raise ValueError("shard_specs must be non-empty")
        else:
            if shards < 1:
                raise ValueError("shards must be >= 1")
            assert testbed is not None
            self.shards = [
                ShardSpec(name=f"s{i}", testbed=testbed) for i in range(shards)
            ]
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.policy = policy
        self.tariff = tariff
        self.routing = routing
        self.steal_threshold = steal_threshold
        self.observer = observer
        #: Topology travels as a *spec string* (picklable; each shard
        #: builds its own fresh instance against its testbed's path).
        self.topology = topology
        self.workers = workers
        self.warm_context = warm_context
        #: Set by :meth:`run`: the accumulated warm-start context.
        self.last_context: Optional[FleetContext] = None
        #: The fleet fabric the topology-aware router water-fills over
        #: (built once here, never pickled — shards rebuild their own
        #: carved views from their spec strings).
        self._fabric: Optional[Topology] = None
        if routing == "topology-aware":
            if self.topology is None:
                raise ValueError(
                    "topology-aware routing requires a fleet topology "
                    "spec (pass topology='leaf-spine:...' or "
                    "'fat-tree:...')"
                )
            if shard_specs is None:
                # shard = endpoint pair: replace the homogeneous
                # s0..sN shards (the ``shards`` count is ignored) with
                # one carved shard per fabric pair
                assert testbed is not None
                self.shards = topology_pair_shards(testbed, self.topology)
            self._fabric = build_topology(
                self.topology,
                bandwidth=self.shards[0].testbed.path.bandwidth,
            )
        _check_routing(routing, steal_threshold, self.shards, self._fabric)
        self._services = [
            ServiceSimulator(
                spec.testbed,
                policy=policy,
                tariff=tariff,
                max_concurrent_jobs=max_concurrent_jobs,
                max_per_tenant=max_per_tenant,
                max_channels=max_channels,
                partition_policy=partition_policy,
                fast=fast,
                topology=spec.topology if spec.topology is not None else topology,
                placement=placement,
                placement_seed=placement_seed,
            )
            for spec in self.shards
        ]

    # ------------------------------------------------------------------

    def _payloads(
        self,
        routed: RoutingResult,
        max_time: Seconds,
        interventions: Sequence[Intervention],
        on_timeout: str,
    ) -> list[dict[str, Any]]:
        warm: tuple[PlanCacheEntry, ...] = (
            self.warm_context.entries if self.warm_context is not None else ()
        )
        observe = self.observer is not None
        return [
            {
                "simulator": simulator,
                "requests": list(bucket),
                "max_time": max_time,
                "observe": observe,
                "warm": warm,
                "interventions": tuple(interventions),
                "on_timeout": on_timeout,
            }
            for simulator, bucket in zip(
                self._services, routed.buckets, strict=True
            )
        ]

    def run(
        self,
        requests: Sequence[TransferRequest],
        *,
        max_time: Seconds = 1e7,
        interventions: Sequence[Intervention] = (),
        on_timeout: str = "raise",
    ) -> FleetReport:
        """Route, execute and merge one fleet day.

        ``max_time`` bounds each shard's *simulated* day; a shard that
        cannot finish raises
        :class:`~repro.netsim.multi.TransferTimeout`, exactly as the
        plain service does — unless ``on_timeout="report"`` asks for
        honestly-truncated shard reports instead.

        ``interventions`` (picklable :class:`Intervention` actions) are
        replayed *on every shard*: fleet-level chaos models shared
        weather — a brownout or tariff spike hits all links of the
        region at once — while per-shard fault isolation falls out of
        each shard owning its own executor state.
        """
        routed = route_requests(
            requests,
            self.shards,
            routing=self.routing,
            steal_threshold=self.steal_threshold,
            observer=self.observer,
            topology=self._fabric,
        )
        payloads = self._payloads(routed, max_time, interventions, on_timeout)
        if self.observer is not None:
            for spec, bucket in zip(self.shards, routed.buckets, strict=True):
                self.observer.emit(
                    0.0, "shard_started", shard=spec.name, jobs=len(bucket)
                )
        n_workers = (
            self.workers
            if self.workers is not None
            else min(len(self.shards), os.cpu_count() or 1)
        )
        start = time.perf_counter()  # repro: noqa[RPL002] — real dispatch wall-clock, reported outside the determinism contract
        if n_workers <= 1 or len(self.shards) == 1:
            outs = [_run_shard(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                outs = list(pool.map(_run_shard, payloads))
        wall_s = time.perf_counter() - start  # repro: noqa[RPL002] — see above
        shard_results: list[ShardResult] = []
        summaries: list[dict] = []
        for i, (spec, out) in enumerate(zip(self.shards, outs, strict=True)):
            report: ServiceReport = out["report"]
            shard_results.append(
                ShardResult(
                    name=spec.name,
                    weight=spec.weight,
                    routed_jobs=len(routed.buckets[i]),
                    stolen_in=routed.stolen_in[i],
                    stolen_out=routed.stolen_out[i],
                    wall_s=out["wall_s"],
                    report=report,
                )
            )
            if out["summary"] is not None:
                summaries.append(out["summary"])
            if self.observer is not None:
                self.observer.emit(
                    report.makespan_s, "shard_completed", shard=spec.name,
                    jobs=len(report.jobs), wall_s=out["wall_s"],
                )
                if out["summary"] is not None:
                    self.observer.merge_summary(out["summary"])
        merged_metrics = merge_summaries(summaries) if summaries else None
        warm_entries: tuple[PlanCacheEntry, ...] = (
            self.warm_context.entries if self.warm_context is not None else ()
        )
        accumulated: dict[tuple, PlanCacheEntry] = {}
        for entry in itertools.chain(
            warm_entries, *(out["export"] for out in outs)
        ):
            accumulated[entry[:5]] = entry
        self.last_context = FleetContext(
            entries=tuple(accumulated.values()),
            source=f"fleet:{len(self.shards)}x{len(requests)}",
        )
        return FleetReport(
            routing=self.routing,
            policy=self.policy.name,
            tariff=self.tariff.name,
            shards=shard_results,
            work_steals=routed.steals,
            wall_s=wall_s,
            metrics=merged_metrics,
        )
