"""The service event loop: admission, execution, and accounting.

:class:`ServiceSimulator` is the piece that turns the paper's planners
into a *service*: tenants submit :class:`TransferRequest`\\ s over a
simulated day, a :class:`~repro.service.scheduler.DeferralPolicy`
decides when each becomes eligible, admission control (a concurrency
cap plus optional per-tenant fairness) decides who runs, and a capless
:class:`~repro.netsim.multi.MultiTransferSimulator` executes the
admitted jobs against the shared path.

Where the lower layers account joules, this layer accounts **dollars
and carbon at the time the joules are drawn**: every shared time step
prices each running job's energy delta at the tariff plateau in force
when the step began, so deferring an ENERGY-class job from the peak to
the off-peak plateau shows up directly as money saved — the paper's
"low-cost data transfer options ... in return for delayed transfers",
measured end to end.

The loop is deterministic (no RNG of its own). Two numerically
equivalent drivers execute the day:

* the **event-driven fast path** (``fast=True``, default) computes the
  next *service event* — pending arrival, deferred release, job
  completion, tariff plateau boundary — analytically, macro-steps the
  shared :class:`~repro.netsim.multi.MultiTransferSimulator` to it in
  one jump (:meth:`~repro.netsim.multi.MultiTransferSimulator.run_until`,
  which reuses the engine's event-horizon fast path), and bills each
  jump's energy delta against the single tariff plateau it provably
  lies in;
* the **dt-grid loop** (``fast=False``) is the golden reference: one
  shared ``dt`` step at a time, per-step billing, idle gaps skipped in
  whole ``dt`` multiples.

Both make identical admission decisions and produce bit-equal event
timestamps (all times live on the shared ``dt`` grid and ``dt`` is a
power of two); bytes, energy, cost and carbon agree to floating-point
round-off. This mirrors the engine's "fast path / fixed-dt duality"
one layer up.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field
from collections import deque
from collections.abc import Sequence
from functools import cached_property
from typing import Optional, Protocol, Union, runtime_checkable

from repro import units
from repro.core.chunks import PartitionPolicy
from repro.netsim.multi import JobRecord, MultiTransferSimulator, TransferTimeout
from repro.obs.observer import Observer
from repro.topo.core import Topology
from repro.topo.placement import PLACEMENT_POLICIES
from repro.service.policies import JobPlan, plan_cache_info, plan_for
from repro.service.requests import TransferRequest
from repro.service.scheduler import DeferralPolicy, SchedulingDecision
from repro.service.tariff import JOULES_PER_KWH, TariffTrace
from repro.testbeds.specs import Testbed
from repro.units import Joules, Seconds

__all__ = ["Intervention", "JobResult", "ServiceReport", "ServiceSimulator"]


@runtime_checkable
class Intervention(Protocol):
    """A timed mid-day mutation of the running service (chaos hook).

    Implementations live in :mod:`repro.chaos.actions`; the service
    only relies on this structural interface so the dependency points
    chaos -> service, not the other way around. ``apply`` runs at the
    first loop iteration whose grid time is ``>= time`` (identically
    in the fast and grid drivers — both bound their jumps by the next
    intervention time, so neither ever steps across one) and returns a
    JSON-safe detail dict for the ``fault_injected`` event.
    """

    #: simulated time (seconds) at which the action fires
    time: Seconds
    #: short machine-readable action name (e.g. ``"link_brownout"``)
    kind: str

    def apply(
        self, service: "ServiceSimulator", sim: MultiTransferSimulator
    ) -> dict: ...


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class JobResult:
    """One request's full service-side lifecycle and bill."""

    name: str
    tenant: str
    sla: str
    algorithm: str
    submitted_at: Seconds
    released_at: Seconds
    admitted_at: Optional[Seconds] = None
    completed_at: Optional[Seconds] = None
    deadline: Optional[Seconds] = None
    deferral_reason: str = ""
    total_bytes: int = 0
    est_duration_s: Seconds = 0.0
    energy_j: Joules = 0.0
    cost_usd: float = 0.0
    kg_co2: float = 0.0

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    @property
    def deferred(self) -> bool:
        return bool(self.deferral_reason)

    @property
    def queue_wait_s(self) -> Seconds:
        """Submission -> admission wait in seconds (includes policy
        deferral)."""
        if self.admitted_at is None:
            return 0.0
        return self.admitted_at - self.submitted_at

    @property
    def duration_s(self) -> Seconds:
        """Admission -> completion in seconds (time actually
        transferring)."""
        if self.completed_at is None or self.admitted_at is None:
            return 0.0
        return self.completed_at - self.admitted_at

    @property
    def turnaround_s(self) -> Seconds:
        """Submission -> completion in seconds, the tenant-visible
        latency."""
        if self.completed_at is None:
            return 0.0
        return self.completed_at - self.submitted_at

    def slowdown(self, floor_s: Seconds = 1.0) -> float:
        """Turnaround over the job's solo duration estimate (>= 1-ish;
        deferral and queueing inflate it). ``floor_s`` (seconds) guards
        the ratio against near-zero estimates."""
        if self.completed_at is None:
            return math.inf
        return self.turnaround_s / max(self.est_duration_s, floor_s)

    @property
    def deadline_missed(self) -> bool:
        if self.deadline is None:
            return False
        if self.completed_at is None:
            return True  # unfinished past its deadline counts as a miss
        return self.completed_at > self.deadline + 1e-9

    def to_dict(self) -> dict:
        """The lifecycle and bill as a JSON-safe dict (derived fields
        included)."""
        return {
            "name": self.name,
            "tenant": self.tenant,
            "sla": self.sla,
            "algorithm": self.algorithm,
            "submitted_at": self.submitted_at,
            "released_at": self.released_at,
            "admitted_at": self.admitted_at,
            "completed_at": self.completed_at,
            "deadline": self.deadline,
            "deferral_reason": self.deferral_reason,
            "total_bytes": self.total_bytes,
            "est_duration_s": self.est_duration_s,
            "queue_wait_s": self.queue_wait_s,
            "duration_s": self.duration_s,
            "turnaround_s": self.turnaround_s,
            "slowdown": self.slowdown() if self.finished else None,
            "deadline_missed": self.deadline_missed,
            "energy_j": self.energy_j,
            "cost_usd": self.cost_usd,
            "kg_co2": self.kg_co2,
        }


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolated percentile (q in [0, 100]); ``None`` if
    empty — an all-miss day must not report the same ``0.0`` a perfect
    day would."""
    if not values:
        return None
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _fmt_pct(value: Optional[float]) -> str:
    """Render an optional percentile: ``n/a`` when no job finished."""
    return "n/a" if value is None else f"{value:.2f}"


def _deadline_miss_rate(jobs: Sequence[JobResult]) -> float:
    """Misses over jobs that *have* deadlines (0.0 if none do)."""
    with_deadline = [j for j in jobs if j.deadline is not None]
    if not with_deadline:
        return 0.0
    return sum(j.deadline_missed for j in with_deadline) / len(with_deadline)


def _mean_queue_wait_s(jobs: Sequence[JobResult]) -> Seconds:
    """Mean submission -> admission wait in seconds, averaged over
    *admitted* jobs only (0.0 if none was): never-admitted jobs have no
    wait to report, and counting them as zero would dilute the mean on
    a truncated day."""
    admitted = [j for j in jobs if j.admitted_at is not None]
    if not admitted:
        return 0.0
    return sum(j.queue_wait_s for j in admitted) / len(admitted)


def _per_tenant(jobs: Sequence[JobResult]) -> dict[str, dict]:
    """kWh/$/kgCO2/jobs/misses of ``jobs`` broken down by tenant, in
    tenant order."""
    groups: dict[str, list[JobResult]] = {}
    for job in jobs:
        groups.setdefault(job.tenant, []).append(job)
    out: dict[str, dict] = {}
    for tenant in sorted(groups):
        group = groups[tenant]
        out[tenant] = {
            "jobs": len(group),
            "admitted": sum(1 for j in group if j.admitted_at is not None),
            "bytes": sum(j.total_bytes for j in group),
            "kwh": sum(j.energy_j for j in group) / JOULES_PER_KWH,
            "cost_usd": sum(j.cost_usd for j in group),
            "kg_co2": sum(j.kg_co2 for j in group),
            "deferred": sum(1 for j in group if j.deferred),
            "deadline_misses": sum(1 for j in group if j.deadline_missed),
            "mean_queue_wait_s": _mean_queue_wait_s(group),
        }
    return out


@dataclass
class ServiceReport:
    """Fleet- and tenant-level totals for one service day.

    Aggregates are ``functools.cached_property``\\ s: they are computed
    (and, for the percentile fields, sorted) exactly once on first
    access, which matters for 100k-job reports whose ``render()`` +
    ``to_dict()`` would otherwise redo every reduction per field. The
    report is therefore *read-only by convention*: it is built once by
    :meth:`ServiceSimulator.run`, and mutating ``jobs`` afterwards
    leaves any already-computed aggregate stale.
    """

    testbed: str
    policy: str
    tariff: str
    jobs: list[JobResult] = field(default_factory=list)
    makespan_s: Seconds = 0.0
    #: True when the run was cut off at ``max_time`` with
    #: ``on_timeout="report"`` — unfinished jobs keep
    #: ``completed_at=None`` and count as deadline misses.
    truncated: bool = False
    #: Topology spec and placement policy the day ran under
    #: (``None``/``None`` for the classic point-to-point path).
    topology: Optional[str] = None
    placement: Optional[str] = None

    # -- aggregates (computed once; see class docstring) ----------------

    @cached_property
    def total_bytes(self) -> int:
        return sum(j.total_bytes for j in self.jobs)

    @cached_property
    def total_energy_j(self) -> Joules:
        """Joules drawn across all jobs in the report."""
        return sum(j.energy_j for j in self.jobs)

    @cached_property
    def total_cost_usd(self) -> float:
        return sum(j.cost_usd for j in self.jobs)

    @cached_property
    def total_kg_co2(self) -> float:
        return sum(j.kg_co2 for j in self.jobs)

    @cached_property
    def deferred_jobs(self) -> int:
        return sum(1 for j in self.jobs if j.deferred)

    @cached_property
    def deadline_miss_rate(self) -> float:
        """Misses over jobs that *have* deadlines (0.0 if none do)."""
        return _deadline_miss_rate(self.jobs)

    @cached_property
    def slowdowns(self) -> list[float]:
        """Per-finished-job slowdown factors (for percentiles)."""
        return [j.slowdown() for j in self.jobs if j.finished]

    @cached_property
    def finished_jobs(self) -> int:
        return sum(1 for j in self.jobs if j.finished)

    @cached_property
    def unfinished_jobs(self) -> int:
        return len(self.jobs) - self.finished_jobs

    @cached_property
    def p50_slowdown(self) -> Optional[float]:
        """``None`` when no job finished (see :func:`_percentile`)."""
        return _percentile(self.slowdowns, 50.0)

    @cached_property
    def p95_slowdown(self) -> Optional[float]:
        """``None`` when no job finished (see :func:`_percentile`)."""
        return _percentile(self.slowdowns, 95.0)

    @cached_property
    def mean_queue_wait_s(self) -> Seconds:
        """Mean submission -> admission wait in seconds."""
        return _mean_queue_wait_s(self.jobs)

    @cached_property
    def per_tenant(self) -> dict[str, dict]:
        """kWh/$/kgCO2/jobs/misses broken down by tenant."""
        return _per_tenant(self.jobs)

    # -- serialization / rendering --------------------------------------

    def to_dict(self) -> dict:
        """The full report (totals, per-tenant, per-job) as a
        JSON-safe dict."""
        return {
            "testbed": self.testbed,
            "policy": self.policy,
            "tariff": self.tariff,
            "jobs": len(self.jobs),
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
            "makespan_s": self.makespan_s,
            "truncated": self.truncated,
            "topology": self.topology,
            "placement": self.placement,
            "unfinished_jobs": self.unfinished_jobs,
            "per_tenant": self.per_tenant,
            "job_results": [j.to_dict() for j in self.jobs],
        }

    def render(self) -> str:
        """The report as an aligned, human-readable block of text."""
        cutoff = (
            f" (TRUNCATED: {self.unfinished_jobs} unfinished)"
            if self.truncated
            else ""
        )
        routed = (
            f", topology={self.topology}, placement={self.placement}"
            if self.topology is not None
            else ""
        )
        lines = [
            f"Service day on {self.testbed} "
            f"(policy={self.policy}, tariff={self.tariff}{routed}):",
            f"  {len(self.jobs)} jobs, {units.to_GB(self.total_bytes):.1f} GB, "
            f"makespan {self.makespan_s:.0f} s{cutoff}",
            f"  energy {self.total_energy_j / JOULES_PER_KWH:.3f} kWh -> "
            f"${self.total_cost_usd:.4f}, {self.total_kg_co2:.4f} kgCO2",
            f"  deferred {self.deferred_jobs}, "
            f"deadline misses {self.deadline_miss_rate:.0%}, "
            f"slowdown p50 {_fmt_pct(self.p50_slowdown)} "
            f"/ p95 {_fmt_pct(self.p95_slowdown)}, "
            f"mean queue wait {self.mean_queue_wait_s:.0f} s",
        ]
        lines.append(
            f"  {'tenant':<10s} {'jobs':>4s} {'GB':>8s} {'kWh':>8s} "
            f"{'$':>9s} {'kgCO2':>8s} {'defer':>5s} {'miss':>4s} {'wait s':>8s}"
        )
        for tenant, row in self.per_tenant.items():
            lines.append(
                f"  {tenant:<10s} {row['jobs']:>4d} "
                f"{units.to_GB(row['bytes']):>8.1f} {row['kwh']:>8.3f} "
                f"{row['cost_usd']:>9.4f} {row['kg_co2']:>8.4f} "
                f"{row['deferred']:>5d} {row['deadline_misses']:>4d} "
                f"{row['mean_queue_wait_s']:>8.0f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------


@dataclass
class _JobState:
    """Book-keeping for one request inside the loop."""

    request: TransferRequest
    plan: JobPlan
    decision: SchedulingDecision
    result: JobResult
    seq: int
    record: Optional[JobRecord] = None  # set at admission
    last_energy: Joules = 0.0


class ServiceSimulator:
    """Runs one day of tenant traffic through plan -> defer -> admit ->
    execute -> account.

    Admission control lives *here* (not in the executor): each round,
    eligible waiting jobs — submitted, past their policy release time —
    are sorted by ``(priority, release, submit, seq)`` and admitted
    while slots remain under ``max_concurrent_jobs``; the optional
    ``max_per_tenant`` cap keeps one tenant's burst from occupying
    every slot. The underlying :class:`MultiTransferSimulator` runs
    capless and purely executes what this layer admits.

    ``fast=True`` (default) drives the day event-to-event instead of
    ``dt``-by-``dt``; ``fast=False`` is the golden-reference grid loop.
    Both produce identical admission decisions, bit-equal timestamps,
    and energy/cost/carbon equal at floating-point round-off (see the
    module docstring and ``tests/test_service_fastpath.py``).
    """

    def __init__(
        self,
        testbed: Testbed,
        *,
        policy: DeferralPolicy,
        tariff: TariffTrace,
        max_concurrent_jobs: int = 4,
        max_per_tenant: Optional[int] = None,
        max_channels: int = 4,
        partition_policy: PartitionPolicy = PartitionPolicy(),
        observer: Optional[Observer] = None,
        fast: bool = True,
        topology: Optional[Union[str, Topology]] = None,
        placement: str = "least-congested",
        placement_seed: int = 0,
    ) -> None:
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if max_per_tenant is not None and max_per_tenant < 1:
            raise ValueError("max_per_tenant must be >= 1")
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {placement!r}; known: "
                f"{', '.join(PLACEMENT_POLICIES)}"
            )
        self.testbed = testbed
        self.policy = policy
        self.tariff = tariff
        self.max_concurrent_jobs = max_concurrent_jobs
        self.max_per_tenant = max_per_tenant
        self.max_channels = max_channels
        self.partition_policy = partition_policy
        self.observer = observer
        self.fast = fast
        #: A spec string is rebuilt (and a Topology deep-copied) per
        #: ``run()``, so chaos scale mutations never leak across runs.
        self.topology = topology
        self.placement = placement
        self.placement_seed = placement_seed

    # ------------------------------------------------------------------

    def _prepare(self, requests: Sequence[TransferRequest]) -> list[_JobState]:
        """Plan and schedule every request up front (both are pure
        functions of the request, so doing it eagerly keeps the loop
        simple without changing any decision)."""
        cache_before = plan_cache_info()
        states: list[_JobState] = []
        seen: set[str] = set()
        for seq, request in enumerate(
            sorted(requests, key=lambda r: (r.submit_time, r.name))
        ):
            if request.name in seen:
                raise ValueError(f"duplicate request name {request.name!r}")
            seen.add(request.name)
            plan = plan_for(
                self.testbed, request, self.max_channels,
                partition_policy=self.partition_policy,
            )
            decision = self.policy.schedule(
                request, plan.est_duration_s, self.tariff
            )
            result = JobResult(
                name=request.name,
                tenant=request.tenant,
                sla=request.sla.label,
                algorithm=plan.algorithm,
                submitted_at=request.submit_time,
                released_at=decision.release_time,
                deadline=request.deadline,
                deferral_reason=decision.reason,
                total_bytes=plan.total_bytes,
                est_duration_s=plan.est_duration_s,
            )
            states.append(_JobState(request, plan, decision, result, seq))
        if self.observer is not None:
            cache_after = plan_cache_info()
            self.observer.count(
                "service.plan_cache_hits",
                cache_after["hits"] - cache_before["hits"],
            )
            self.observer.count(
                "service.plan_cache_misses",
                cache_after["misses"] - cache_before["misses"],
            )
        return states

    def _admit(
        self,
        now: Seconds,
        waiting: list[_JobState],
        running: list[_JobState],
        sim: MultiTransferSimulator,
    ) -> None:
        """Move eligible waiting jobs into the executor, best-first."""
        slots = self.max_concurrent_jobs - len(running)
        if slots <= 0:
            return
        eligible = [
            s for s in waiting if s.decision.release_time <= now + 1e-9
        ]
        eligible.sort(
            key=lambda s: (
                s.decision.priority,
                s.decision.release_time,
                s.request.submit_time,
                s.seq,
            )
        )
        tenant_running: dict[str, int] = {}
        for s in running:
            tenant_running[s.request.tenant] = (
                tenant_running.get(s.request.tenant, 0) + 1
            )
        for state in eligible:
            if slots <= 0:
                break
            tenant = state.request.tenant
            if (
                self.max_per_tenant is not None
                and tenant_running.get(tenant, 0) >= self.max_per_tenant
            ):
                continue
            waiting.remove(state)
            self._start(now, state, running, sim)
            tenant_running[tenant] = tenant_running.get(tenant, 0) + 1
            slots -= 1

    def _start(
        self,
        now: Seconds,
        state: _JobState,
        running: list[_JobState],
        sim: MultiTransferSimulator,
    ) -> None:
        """Hand an admitted job to the executor, arriving at ``now``.

        ``now`` is a sum of ``dt`` steps and can sit a round-off below
        the submit time that the ``1e-9`` ingest tolerance let in, so
        the admission stamp is clamped to the submission: a queue wait
        is never negative.
        """
        state.record = sim.submit(
            state.request.name, state.plan.plans, arrival_time=now
        )
        state.result.admitted_at = max(now, state.result.submitted_at)
        running.append(state)
        if self.observer is not None:
            self.observer.emit(
                now, "job_admitted", job=state.request.name,
                queue_wait_s=state.result.queue_wait_s,
            )

    def _finalize(self, state: _JobState, now: Seconds) -> None:
        """Close a completed job's books and emit its events."""
        state.result.completed_at = state.record.completion_time
        if self.observer is not None:
            self.observer.emit(
                now, "job_completed", job=state.request.name,
                duration_s=state.result.duration_s,
                energy_j=state.result.energy_j,
                cost_usd=state.result.cost_usd,
            )
            if state.result.deadline_missed:
                self.observer.emit(
                    now, "deadline_missed", job=state.request.name,
                    deadline=state.result.deadline,
                    completion=state.result.completed_at,
                )

    @staticmethod
    def _timeout(
        max_time: Seconds, unfinished: list[str]
    ) -> TransferTimeout:
        return TransferTimeout(
            f"service run hit max_time={max_time:g} s with "
            f"{len(unfinished)} unfinished job(s): " + ", ".join(unfinished)
        )

    def run(
        self,
        requests: Sequence[TransferRequest],
        *,
        max_time: Seconds = 1e7,
        interventions: Sequence[Intervention] = (),
        on_timeout: str = "raise",
    ) -> ServiceReport:
        """Run every request to completion and return the day's report.

        ``interventions`` is an optional sequence of timed
        :class:`Intervention` actions (chaos faults, tariff swaps, …)
        applied mid-day at their scheduled sim times — identically in
        the fast and grid drivers, which both bound their jumps by the
        next intervention time.

        If ``max_time`` simulated seconds pass with jobs still
        unfinished, ``on_timeout="raise"`` (default) raises
        :class:`~repro.netsim.multi.TransferTimeout` — a truncated day
        must not masquerade as a cheap one — while
        ``on_timeout="report"`` returns an honestly-truncated report:
        ``truncated=True``, unfinished jobs keep ``completed_at=None``
        (counting as deadline misses), and the slowdown percentiles
        are ``None`` when nothing finished.
        """
        if on_timeout not in ("raise", "report"):
            raise ValueError(
                f"on_timeout must be 'raise' or 'report', got {on_timeout!r}"
            )
        states = self._prepare(requests)
        actions = sorted(
            interventions, key=lambda a: a.time
        )  # stable: ties keep caller order
        topology = self.topology
        if isinstance(topology, Topology):
            # each run gets its own copy: interventions scale
            # bottleneck capacities in place
            topology = copy.deepcopy(topology)
        sim = MultiTransferSimulator(
            self.testbed,
            max_concurrent_jobs=None,
            topology=topology,
            placement=self.placement,
            placement_seed=self.placement_seed,
            observer=self.observer,
        )
        # a TariffSwap intervention replaces ``self.tariff`` mid-day; the
        # day's own tariff is put back once the report is built
        tariff = self.tariff
        try:
            if self.fast:
                truncated = self._run_fast(states, sim, max_time, actions, on_timeout)
            else:
                truncated = self._run_grid(states, sim, max_time, actions, on_timeout)
            # close the day's coalesced allocation-cache stretch (if any)
            sim.flush_topo_events()
            return ServiceReport(
                testbed=self.testbed.name,
                policy=self.policy.name,
                tariff=self.tariff.name,
                jobs=[s.result for s in sorted(states, key=lambda s: s.seq)],
                makespan_s=sim.makespan,
                truncated=truncated,
                topology=(
                    None if sim.topology is None
                    else (self.topology if isinstance(self.topology, str)
                          else sim.topology.name)
                ),
                placement=None if sim.topology is None else self.placement,
            )
        finally:
            self.tariff = tariff

    def _apply_interventions(
        self,
        now: Seconds,
        actions: list[Intervention],
        iv_idx: int,
        running: list[_JobState],
        sim: MultiTransferSimulator,
    ) -> int:
        """Fire every intervention due at ``now`` (shared by both
        drivers so the mutation order — and hence every downstream
        decision — is identical). Returns the new queue index."""
        fired = False
        while iv_idx < len(actions) and actions[iv_idx].time <= now + 1e-9:
            action = actions[iv_idx]
            iv_idx += 1
            detail = action.apply(self, sim)
            fired = True
            if self.observer is not None:
                self.observer.emit(
                    now, "fault_injected", fault=action.kind, detail=detail
                )
        if fired and running and self.policy.reroute_on_failure:
            # recovery hook: re-open channels for jobs stranded with
            # no transport (e.g. every channel cut) — policies can opt
            # out via ``reroute_on_failure = False``.
            readmitted = sim.readmit_stranded()
            if readmitted and self.observer is not None:
                self.observer.count("chaos.jobs_readmitted", len(readmitted))
        return iv_idx

    # -- golden reference: the dt-grid loop ----------------------------

    def _run_grid(
        self,
        states: list[_JobState],
        sim: MultiTransferSimulator,
        max_time: Seconds,
        actions: list[Intervention],
        on_timeout: str,
    ) -> bool:
        dt = sim.dt
        pending = deque(states)     # not yet submitted (future arrivals)
        waiting: list[_JobState] = []  # submitted, not yet admitted
        running: list[_JobState] = []  # admitted, transferring
        done: list[_JobState] = []
        iv_idx = 0

        while len(done) < len(states):
            now = sim.time
            if now >= max_time:
                if on_timeout == "report":
                    return True
                raise self._timeout(
                    max_time,
                    [s.request.name for s in [*pending, *waiting, *running]],
                )

            # 0. chaos interventions due at this grid point
            iv_idx = self._apply_interventions(
                now, actions, iv_idx, running, sim
            )

            # 1. ingest submissions whose time has come
            while pending and pending[0].request.submit_time <= now + 1e-9:
                state = pending.popleft()
                waiting.append(state)
                if self.observer is not None:
                    self.observer.emit(
                        now, "job_submitted", job=state.request.name,
                        tenant=state.request.tenant, sla=state.request.sla.label,
                    )
                    if state.decision.deferred:
                        self.observer.emit(
                            now, "job_deferred", job=state.request.name,
                            until=state.decision.release_time,
                            reason=state.decision.reason,
                        )

            # 2. admission under the cap and per-tenant fairness
            self._admit(now, waiting, running, sim)

            if running:
                # 3. one shared step, priced at the tariff in force now
                for state in running:
                    state.last_energy = state.record.energy_joules
                sim.step()
                finished: list[_JobState] = []
                for state in running:
                    delta = state.record.energy_joules - state.last_energy
                    if delta > 0:
                        state.result.energy_j += delta
                        state.result.cost_usd += self.tariff.cost(delta, now)
                        state.result.kg_co2 += self.tariff.carbon(delta, now)
                    if state.record.finished:
                        finished.append(state)
                for state in finished:
                    running.remove(state)
                    done.append(state)
                    self._finalize(state, sim.time)
            else:
                # 4. idle: jump (on the dt grid) to the next submission
                #    or release, keeping step timestamps identical to a
                #    naive step-by-step run.
                horizons = (
                    [pending[0].request.submit_time] if pending else []
                )
                horizons += [s.decision.release_time for s in waiting]
                if iv_idx < len(actions):
                    horizons.append(actions[iv_idx].time)
                target = min(horizons) if horizons else math.inf
                if math.isinf(target):
                    raise RuntimeError(
                        "service loop stalled: no running jobs and no "
                        "future events"
                    )
                steps = max(1, math.ceil((target - now - 1e-9) / dt))
                sim.time += steps * dt
        return False

    # -- event-driven fast path ----------------------------------------

    def _admit_fast(
        self,
        now: Seconds,
        eligible: list[tuple[float, Seconds, Seconds, int, _JobState]],
        running: list[_JobState],
        sim: MultiTransferSimulator,
    ) -> None:
        """Heap-based admission, identical selection order to
        :meth:`_admit`: pop eligible jobs best-first (same
        ``(priority, release, submit, seq)`` key), skip tenant-capped
        ones to the side, stop when the slots run out, push the
        skipped ones back."""
        slots = self.max_concurrent_jobs - len(running)
        if slots <= 0 or not eligible:
            return
        tenant_running: dict[str, int] = {}
        for s in running:
            tenant_running[s.request.tenant] = (
                tenant_running.get(s.request.tenant, 0) + 1
            )
        skipped: list[tuple[float, Seconds, Seconds, int, _JobState]] = []
        while eligible and slots > 0:
            entry = heapq.heappop(eligible)
            state = entry[4]
            tenant = state.request.tenant
            if (
                self.max_per_tenant is not None
                and tenant_running.get(tenant, 0) >= self.max_per_tenant
            ):
                skipped.append(entry)
                continue
            self._start(now, state, running, sim)
            tenant_running[tenant] = tenant_running.get(tenant, 0) + 1
            slots -= 1
        for entry in skipped:
            heapq.heappush(eligible, entry)

    def _run_fast(
        self,
        states: list[_JobState],
        sim: MultiTransferSimulator,
        max_time: Seconds,
        actions: list[Intervention],
        on_timeout: str,
    ) -> bool:
        """The event-driven day: jump from service event to service
        event instead of grinding the ``dt`` grid.

        While the running set is frozen — no pending arrival, no
        deferred release, no completion, no tariff plateau boundary
        before the horizon — nothing this layer does at a grid point
        can differ from doing nothing: submissions/releases are not
        due (their times bound the horizon), admission cannot change
        (slots only free at completions, where
        :meth:`MultiTransferSimulator.run_until` returns), and every
        executed step starts inside one tariff plateau (so per-jump
        billing at that plateau's price equals the grid loop's
        per-step billing). ``run_until`` supplies the execution-side
        guarantees (engine event horizons, cross-job stream-count
        stability) and stops at completions; idle gaps are jumped on
        the grid exactly like the reference loop.
        """
        dt = sim.dt
        observer = self.observer
        # NOTE: ``self.tariff`` is read afresh each round (never cached
        # in a local) so a mid-day ``TariffSwap`` intervention reprices
        # the very next jump, exactly like the grid loop's per-step
        # ``self.tariff.cost`` calls.
        pending = deque(states)     # not yet submitted (future arrivals)
        #: submitted, release time still in the future — keyed so the
        #: top is the next release
        future: list[tuple[Seconds, int, _JobState]] = []
        #: submitted and past release — keyed by admission preference
        eligible: list[tuple[float, Seconds, Seconds, int, _JobState]] = []
        running: list[_JobState] = []
        done: list[_JobState] = []
        last_macro_rounds = 0
        last_macro_dts = 0
        iv_idx = 0

        def eligible_entry(
            state: _JobState,
        ) -> tuple[float, Seconds, Seconds, int, _JobState]:
            return (
                state.decision.priority,
                state.decision.release_time,
                state.request.submit_time,
                state.seq,
                state,
            )

        while len(done) < len(states):
            now = sim.time
            if now >= max_time:
                if on_timeout == "report":
                    return True
                waiting = sorted(
                    [entry[2] for entry in future]
                    + [entry[4] for entry in eligible],
                    key=lambda s: s.seq,
                )
                raise self._timeout(
                    max_time,
                    [s.request.name for s in [*pending, *waiting, *running]],
                )

            # 0. chaos interventions due at this grid point
            iv_idx = self._apply_interventions(
                now, actions, iv_idx, running, sim
            )

            # 1. ingest submissions whose time has come
            while pending and pending[0].request.submit_time <= now + 1e-9:
                state = pending.popleft()
                if observer is not None:
                    observer.emit(
                        now, "job_submitted", job=state.request.name,
                        tenant=state.request.tenant, sla=state.request.sla.label,
                    )
                    if state.decision.deferred:
                        observer.emit(
                            now, "job_deferred", job=state.request.name,
                            until=state.decision.release_time,
                            reason=state.decision.reason,
                        )
                if state.decision.release_time <= now + 1e-9:
                    heapq.heappush(eligible, eligible_entry(state))
                else:
                    heapq.heappush(
                        future,
                        (state.decision.release_time, state.seq, state),
                    )

            # 2. deferred releases whose time has come
            while future and future[0][0] <= now + 1e-9:
                _release, _seq, state = heapq.heappop(future)
                heapq.heappush(eligible, eligible_entry(state))

            # 3. admission under the cap and per-tenant fairness
            self._admit_fast(now, eligible, running, sim)

            if running:
                # 4. jump to the next service event; bill the energy
                #    drawn during the jump at the single plateau every
                #    executed step start provably lies in.
                price, carbon, boundary = self.tariff.plateau(now)
                # bound by max_time itself (not max_time + dt): the
                # grid loop stops at the first grid point >= max_time,
                # and running one step past it could record a
                # completion the reference never would.
                horizon = min(boundary, max_time)
                if pending:
                    horizon = min(horizon, pending[0].request.submit_time)
                if future:
                    horizon = min(horizon, future[0][0])
                if iv_idx < len(actions):
                    # never macro-step across an intervention: the
                    # fault must land on the same grid point in both
                    # drivers (fast-path invalidation contract).
                    horizon = min(horizon, actions[iv_idx].time)
                if horizon <= now + 1e-9:
                    # the event sits in the epsilon sliver just above
                    # ``now`` (e.g. a non-grid-aligned plateau edge):
                    # take one exact step, billed — as the grid loop
                    # bills it — at the plateau in force at its start.
                    horizon = now + dt
                for state in running:
                    assert state.record is not None
                    state.last_energy = state.record.energy_joules
                sim.run_until(horizon)
                finished: list[_JobState] = []
                for state in running:
                    assert state.record is not None
                    delta = state.record.energy_joules - state.last_energy
                    if delta > 0:
                        kwh = delta / JOULES_PER_KWH
                        state.result.energy_j += delta
                        state.result.cost_usd += kwh * price
                        state.result.kg_co2 += kwh * carbon
                    if state.record.finished:
                        finished.append(state)
                if observer is not None:
                    d_rounds = sim.macro_rounds - last_macro_rounds
                    d_dts = sim.macro_stepped_dts - last_macro_dts
                    if d_rounds:
                        observer.emit(
                            now, "service_macro_step", steps=d_dts,
                            span_s=d_dts * dt, rounds=d_rounds,
                        )
                    last_macro_rounds = sim.macro_rounds
                    last_macro_dts = sim.macro_stepped_dts
                for state in finished:
                    running.remove(state)
                    done.append(state)
                    self._finalize(state, sim.time)
            else:
                # 5. idle: jump (on the dt grid) to the next submission
                #    or release — the same arithmetic as the reference
                #    loop, so timestamps stay bit-equal.
                horizons = (
                    [pending[0].request.submit_time] if pending else []
                )
                if future:
                    horizons.append(future[0][0])
                if eligible:
                    horizons.append(now)  # slot-capped: advance one dt
                if iv_idx < len(actions):
                    horizons.append(actions[iv_idx].time)
                target = min(horizons) if horizons else math.inf
                if math.isinf(target):
                    raise RuntimeError(
                        "service loop stalled: no running jobs and no "
                        "future events"
                    )
                steps = max(1, math.ceil((target - now - 1e-9) / dt))
                sim.time += steps * dt
        return False
