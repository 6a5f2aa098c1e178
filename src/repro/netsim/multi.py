"""Multiple transfers sharing one path.

A transfer service rarely moves one dataset at a time. This module runs
several :class:`TransferEngine` instances in lock-step against the same
path: at every step each job sees every *other* active job's TCP
streams as competing traffic, so the link is divided per-stream across
jobs exactly as it is within one (TCP fairness), and per-job energy is
accounted separately.

It deliberately supports **statically planned** jobs (a list of
``ChunkPlan``\\ s — what MinE, ProMC, SC, GUC produce); the adaptive
algorithms own their engine's control loop and are exercised against
cross-traffic through ``engine_options(background_traffic=...)``
instead.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional, Union

from repro.netsim.channel import Channel
from repro.netsim.engine import (
    _MEMO_CAP,
    Binding,
    ChunkPlan,
    TransferEngine,
    advance_clock,
)
from repro.power.models import FineGrainedPowerModel
from repro.testbeds.specs import Testbed
from repro.topo.alloc import (
    AllocationResult,
    FlowDemand,
    alloc_cache_info,
    carry,
    refill,
)
from repro.topo.core import Path, Topology, build_topology
from repro.topo.placement import Placer
from repro.units import Bytes, BytesPerSecond, Joules, Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

__all__ = ["JobRecord", "MultiTransferSimulator", "TransferTimeout"]


class TransferTimeout(RuntimeError):
    """``run(max_time=...)`` expired with unfinished jobs.

    Raising (rather than returning truncated records as if they were
    complete) keeps service-level deadline accounting honest: a job
    whose completion time is unknown must not be mistaken for one that
    met — or missed — its deadline.
    """


@dataclass
class JobRecord:
    """Lifecycle and cost of one job in a multi-transfer run.

    Times are simulated seconds, sizes bytes, energy joules.
    """

    name: str
    arrival_time: Seconds
    total_bytes: Bytes
    start_time: Optional[Seconds] = None
    completion_time: Optional[Seconds] = None
    energy_joules: Joules = 0.0
    #: Set when a ``run`` hit its ``max_time`` before this job finished
    #: (only reachable with ``on_timeout="warn"``; the default raises).
    truncated: bool = False

    @property
    def finished(self) -> bool:
        return self.completion_time is not None

    @property
    def turnaround_s(self) -> Seconds:
        """Arrival-to-completion time in seconds (raises if unfinished)."""
        if self.completion_time is None:
            raise ValueError(f"job {self.name!r} has not finished")
        return self.completion_time - self.arrival_time

    @property
    def throughput(self) -> BytesPerSecond:
        """Mean rate while running, bytes/s."""
        if self.completion_time is None or self.start_time is None:
            return 0.0
        elapsed = self.completion_time - self.start_time
        return self.total_bytes / elapsed if elapsed > 0 else 0.0


@dataclass(slots=True, eq=False)
class _Span:
    """An engine's open span in :meth:`MultiTransferSimulator.run_until`:
    the allocation :meth:`TransferEngine.prepare_step` froze and the
    steps run at it that the engine has not been advanced by yet."""

    busy: list[Channel]
    rates: tuple[float, ...]
    #: Steps run since the span opened.
    steps: int = 0
    #: Steps from the span's start known to keep its busy set and the
    #: stream count its peers sample (0 until bounded).
    limit: int = 0
    #: The bound that set ``limit`` (a ``multi.round_bound`` reason).
    reason: str = "horizon"
    #: ``limit`` is an event's or the horizon's, not just the cap it
    #: was computed under.
    final: bool = False


class MultiTransferSimulator:
    """Lock-step coordinator for jobs sharing a testbed's path.

    ``max_concurrent_jobs`` models the provider's admission policy:
    arrived jobs beyond the cap queue (FIFO by arrival, ties by
    submission order) until a slot frees up.
    """

    def __init__(
        self,
        testbed: Testbed,
        *,
        max_concurrent_jobs: Optional[int] = None,
        binding: Binding = Binding.PACK,
        topology: Optional[Union[str, Topology]] = None,
        placement: str = "least-congested",
        placement_seed: int = 0,
        observer: Optional["Observer"] = None,
    ) -> None:
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        self.testbed = testbed
        self.max_concurrent_jobs = max_concurrent_jobs
        self.binding = binding
        self.dt = testbed.engine_dt
        self.time = 0.0
        self.observer = observer
        #: Eq. 1 model shared by every job's engine (it is frozen).
        self._power_model = FineGrainedPowerModel(testbed.coefficients)
        #: The allocation and power-group memo tables every job's
        #: engine reads and fills: the engines share the path, end
        #: systems and power model, so a configuration one job solved
        #: is a hit for every later one (see ``_allocate_rates``).
        self._memos: tuple[dict, dict] = ({}, {})
        #: Demand floors of lone capped flows (see :meth:`_demand_floor`).
        self._floors: dict[tuple, float] = {}
        #: Optional shared network: a spec string (``"leaf-spine:s=2,l=4"``)
        #: is built against the testbed path's bandwidth; a
        #: :class:`~repro.topo.core.Topology` is used as-is. With a
        #: topology attached every admitted job is placed on a path by
        #: the :class:`~repro.topo.placement.Placer` and each round's
        #: rates are capped by the network-wide water-fill
        #: (:meth:`_impose_caps`).
        if isinstance(topology, str):
            topology = build_topology(
                topology, bandwidth=testbed.path.bandwidth
            )
        self.topology = topology
        self._placer: Optional[Placer] = (
            None
            if topology is None
            else Placer(topology, placement, seed=placement_seed)
        )
        #: job name -> the Path the placer chose at admission.
        self._flow_paths: dict[str, Path] = {}
        #: Change-detection state for the topology observer events.
        self._congested_flows: set[str] = set()
        self._last_loads: dict[str, float] = {}
        #: Round-level allocation reuse (DESIGN.md §5h): the imposed
        #: :class:`AllocationResult` and the topology version it was
        #: computed under, so the next round can carry it or
        #: :func:`~repro.topo.alloc.refill` from it instead of
        #: re-solving.
        self._alloc_prev: Optional[AllocationResult] = None
        self._alloc_version = -1
        #: Set by a pinned lone-flow round of :meth:`run_until` for the
        #: next round (see :meth:`_pinned_key`); ``None`` otherwise.
        self._hold: Optional[tuple] = None
        #: Coalesced ``allocation_cached`` stretch (start time and
        #: cache-served round count), flushed on the first non-cached
        #: round and by :meth:`flush_topo_events`.
        self._cached_span_start: Optional[Seconds] = None
        self._cached_span_rounds = 0
        #: Every submitted job's record, in submission order. Only the
        #: records outlive their jobs: a job's engine is held by
        #: ``_unstarted`` while it queues and by ``_active`` while it
        #: runs, and dies when a driver stamps its completion.
        self._records: list[JobRecord] = []
        self._names: set[str] = set()
        # Incremental indexes: ``step``/``run_until`` never scan the
        # full submission list. ``_unstarted`` holds jobs in arrival
        # order (lazily re-sorted only if a submission arrives out of
        # order), ``_active`` the admitted-but-unfinished jobs.
        self._unstarted: deque[tuple[JobRecord, TransferEngine]] = deque()
        self._unstarted_dirty = False
        self._active: list[tuple[JobRecord, TransferEngine]] = []
        #: Chaos state shared by every job on this path. ``_link_scale``
        #: and ``_ambient_streams`` are constant between injection calls
        #: (the fast-path contract); ``_site_down`` maps a failed
        #: server to its recovery time *on this simulator's clock* so
        #: jobs admitted mid-outage inherit the remaining downtime.
        self._link_scale = 1.0
        #: Set once a brownout has ever been injected: newly submitted
        #: engines then inherit the current factor. An explicit flag —
        #: not an exact-float compare against the 1.0 sentinel — so a
        #: restore to full capacity still propagates cleanly.
        self._link_scale_active = False
        self._ambient_streams = 0.0
        self._site_down: dict[tuple[str, int], Seconds] = {}
        #: Fast-path accounting (:meth:`run_until` only): macro rounds
        #: taken, ``dt`` steps they covered, and single-step rounds.
        self.macro_rounds = 0
        self.macro_stepped_dts = 0
        self.fixed_rounds = 0

    # ------------------------------------------------------------------

    def submit(
        self,
        name: str,
        plans: Sequence[ChunkPlan],
        *,
        arrival_time: Seconds = 0.0,
    ) -> JobRecord:
        """Queue a statically planned job."""
        if arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if name in self._names:
            raise ValueError(f"duplicate job name {name!r}")
        engine = TransferEngine(
            self.testbed.path,
            self.testbed.source,
            self.testbed.destination,
            self._power_model.power,
            dt=self.dt,
            binding=self.binding,
            work_stealing=True,
            _memos=self._memos,
        )
        record = JobRecord(
            name=name,
            arrival_time=arrival_time,
            total_bytes=float(sum(p.total_size for p in plans)),
        )
        # chunks registered up front; channels open when the job starts
        for plan in plans:
            engine.submit_chunk(plan)
        if self._link_scale_active:
            # a brownout was injected at some point; propagate the
            # current factor (a restore back to 1.0 is a no-op on the
            # engine side)
            engine.set_link_scale(self._link_scale)
        self._records.append(record)
        self._names.add(name)
        if self._unstarted and arrival_time < self._unstarted[-1][0].arrival_time:
            self._unstarted_dirty = True
        self._unstarted.append((record, engine))
        return record

    # ------------------------------------------------------------------

    def _sort_unstarted(self) -> None:
        """Restore arrival order after an out-of-order submission.

        The sort is stable, so ties keep submission order — the same
        FIFO tie-break the service contract promises.
        """
        if self._unstarted_dirty:
            self._unstarted = deque(
                sorted(self._unstarted, key=lambda pair: pair[0].arrival_time)
            )
            self._unstarted_dirty = False

    def _admit_jobs(self) -> None:
        if not self._unstarted:
            return
        self._sort_unstarted()
        if self._unstarted[0][0].arrival_time > self.time + 1e-12:
            return  # nothing has arrived yet
        slots = (
            self.max_concurrent_jobs - len(self._active)
            if self.max_concurrent_jobs is not None
            else None
        )
        # FIFO by arrival; ties resolved by submission order (the
        # arrival index is kept stable-sorted).
        while (
            self._unstarted
            and self._unstarted[0][0].arrival_time <= self.time + 1e-12
        ):
            if slots is not None and slots <= 0:
                break
            record, engine = self._unstarted.popleft()
            record.start_time = self.time
            if self._placer is not None:
                # one route per job, chosen at admission — admission
                # order is FIFO and identical in the fast and grid
                # drivers, so a fixed placer seed places identically
                path = self._placer.place(record.name)
                self._flow_paths[record.name] = path
                if self.observer is not None:
                    self.observer.emit(
                        self.time, "job_placed", job=record.name,
                        path=path.name, policy=self._placer.policy,
                    )
            self._inherit_outages(engine)
            engine.admit_pending()
            self._active.append((record, engine))
            if slots is not None:
                slots -= 1

    def _inherit_outages(self, engine: TransferEngine) -> None:
        """Propagate in-force server outages to a job being admitted.

        The engine's clock starts at zero on admission, so the shared
        recovery time is translated into the engine-local remaining
        downtime. Expired outages are purged as a side effect.
        """
        if not self._site_down:
            return
        for key, until in list(self._site_down.items()):
            if until <= self.time + 1e-12:
                del self._site_down[key]
                continue
            engine.mark_server_down(
                key[0], key[1], until=(until - self.time) + engine.time
            )

    def _drop_finished(self) -> None:
        """Let go of the engines of the jobs a round just stamped
        finished; only their records stay. A hold set this round names
        the lone engine that finished, so it goes too (it could never
        match a running engine again)."""
        self._active = [pair for pair in self._active if not pair[0].finished]
        self._hold = None

    def _release_flow(self, record: JobRecord) -> None:
        """Free a completed job's route (placer load bookkeeping)."""
        if self._placer is None:
            return
        path = self._flow_paths.pop(record.name, None)
        if path is not None:
            self._placer.release(path)
        self._congested_flows.discard(record.name)

    def _backgrounds(
        self,
        running: list[tuple[JobRecord, TransferEngine]],
        counts: list[int],
        total: int,
    ) -> list[float]:
        """Competing stream count each running engine sees this round.

        Without a topology every job shares one link, so a job competes
        with the total of every *other* job's streams plus the ambient
        load. With a topology a job only competes with the streams that
        actually cross a bottleneck on *its* path — the count is the
        worst such hop. On a single shared bottleneck the worst hop
        carries everyone, so the topology-aware count reduces exactly
        to ``total - own + ambient`` — the byte-identity the single-link
        topology tests pin down.
        """
        ambient = self._ambient_streams
        if self._placer is None:
            return [total - count + ambient for count in counts]
        hop_streams: dict[str, int] = {}
        for (record, _engine), count in zip(running, counts):
            path = self._flow_paths.get(record.name)
            if path is None:
                continue
            for hop in path.bottlenecks:
                hop_streams[hop] = hop_streams.get(hop, 0) + count
        backgrounds: list[float] = []
        for (record, _engine), count in zip(running, counts):
            path = self._flow_paths.get(record.name)
            if path is None:
                backgrounds.append(total - count + ambient)
                continue
            worst = max(hop_streams[hop] for hop in path.bottlenecks)
            backgrounds.append(worst - count + ambient)
        return backgrounds

    def _note_alloc_round(
        self, *, hits: int, misses: int, incremental: int
    ) -> None:
        """Account one allocation round's cache traffic and extend (or
        flush) the coalesced ``allocation_cached`` stretch."""
        if self.observer is not None:
            self.observer.count("topo.alloc_cache_hits", hits)
            self.observer.count("topo.alloc_cache_misses", misses)
            self.observer.count("topo.alloc_incremental_rounds", incremental)
        if hits and not misses:
            if self._cached_span_start is None:
                self._cached_span_start = self.time
            self._cached_span_rounds += 1
        else:
            self.flush_topo_events()

    def flush_topo_events(self) -> None:
        """Emit the pending coalesced ``allocation_cached`` stretch.

        Called on the first non-cached round and by the drivers at the
        end of a run, mirroring the engine's coalesced
        ``fixed_dt_fallback`` contract: one event per stretch, so the
        stream stays bounded for fleet-scale topology days.
        """
        if self._cached_span_start is None:
            return
        if self.observer is not None:
            self.observer.emit(
                self._cached_span_start, "allocation_cached",
                rounds=self._cached_span_rounds,
                span_s=self.time - self._cached_span_start,
            )
        self._cached_span_start = None
        self._cached_span_rounds = 0

    def _impose_caps(
        self, running: list[tuple[JobRecord, TransferEngine]]
    ) -> None:
        """Impose each flow's network-wide share as an engine rate cap.

        The psim round: every running flow registers its *uncapped*
        demand (what its busy channels would jointly carry) on the
        bottlenecks along its placed path; the topology water-fills to
        the max-min fixed point; each congested flow's engine is capped
        at its share, demand-limited flows are uncapped. Called at the
        same point of every round in both drivers — after backgrounds
        are set, before work assignment — so the caps are identical at
        identical grid times. Within a macro span the busy signature
        and the peer stream counts are frozen (``stable_steps`` /
        ``count_stable_steps``), hence so are the demands and the caps:
        freezing them across the span is exact, not approximate.

        The same caps come three ways, cheapest first (DESIGN.md §5h,
        "The topology round"): the *hold* — the round after a pinned
        lone-flow round of :meth:`run_until` keeps the cap without
        reading the demand while :meth:`_pinned_key` is unchanged (its
        busy set is a non-empty subset of the pinned set, so its demand
        clears the floor and the cap); the *carry*
        (:func:`~repro.topo.alloc.carry`), under which the caps already
        imposed stay exact; else :func:`~repro.topo.alloc.refill` from
        the previous result.
        """
        if self._placer is None:
            return
        assert self.topology is not None
        version = self.topology.version
        hold, self._hold = self._hold, None
        if (
            hold is not None
            and len(running) == 1
            and running[0][1].busy_streams > 0
            and hold == self._pinned_key(running[0][1])
        ):
            self._note_alloc_round(hits=1, misses=0, incremental=0)
            return
        flows: list[tuple[str, tuple[str, ...], float, float]] = []
        members: list[tuple[JobRecord, TransferEngine, Path]] = []
        for record, engine in running:
            path = self._flow_paths.get(record.name)
            if path is None:
                continue
            demand = engine.demand_rate()
            if demand <= 0.0:
                # freshly admitted: channels open but unassigned until
                # the first step's work assignment
                engine.set_capacity_cap(None)
                continue
            flows.append((record.name, path.bottlenecks, demand, 1.0))
            members.append((record, engine, path))
        if not flows:
            # Any previously imposed caps were reset above (or their
            # flows completed): the next non-empty round must re-impose
            # from scratch, not carry stale caps.
            self._alloc_prev = None
            return
        prev = self._alloc_prev if self._alloc_version == version else None
        carried = carry(prev, flows) if prev is not None else None
        if carried is not None:
            self._alloc_prev = carried
            self._note_alloc_round(hits=1, misses=0, incremental=0)
            return
        info0 = alloc_cache_info()
        result = refill(
            self.topology,
            [FlowDemand(name, path, demand) for name, path, demand, _ in flows],
            prev,
        )
        info1 = alloc_cache_info()
        hits = info1.hits - info0.hits
        misses = info1.misses - info0.misses
        served = hits > 0 and misses == 0
        self._note_alloc_round(
            hits=1 if served else 0,
            misses=0 if served else 1,
            incremental=1 if prev is not None and not served else 0,
        )
        self._alloc_prev = result
        self._alloc_version = version
        observer = self.observer
        for record, engine, path in members:
            name = record.name
            bound = result.binding[name]
            if bound is None:
                engine.set_capacity_cap(None)
                self._congested_flows.discard(name)
                continue
            engine.set_capacity_cap(result.rates[name])
            if name not in self._congested_flows:
                self._congested_flows.add(name)
                if observer is not None:
                    observer.emit(
                        self.time, "path_congested", job=name,
                        path=path.name, bottleneck=bound,
                        demand=result.demands[name], rate=result.rates[name],
                    )
        if observer is not None:
            for hop, load in result.bottleneck_load.items():
                last = self._last_loads.get(hop)
                if last is None or abs(load - last) > 1e-6 * max(load, 1.0):
                    self._last_loads[hop] = load
                    observer.emit(
                        self.time, "bottleneck_allocated", bottleneck=hop,
                        capacity=self.topology.capacity(hop),
                        flows=result.bottleneck_flows[hop], rate=load,
                    )

    def _pinned_key(self, engine: TransferEngine) -> tuple:
        """What a lone flow's demand floor and cap read besides its busy
        channels: the engine, the topology version, its competing
        streams, its link scale and its channel set."""
        assert self.topology is not None
        return (
            engine,
            self.topology.version,
            engine.background_traffic,
            engine.link_scale,
            engine.channel_version,
        )

    def _demand_floor(self, engine: TransferEngine, busy: list[Channel]) -> float:
        """``engine.demand_floor(busy)``, memoized per simulator. Every
        engine here shares the path and end systems, so the floor is a
        function of what it reads from ``busy`` (each channel's
        parallelism and servers), the competing streams and the link
        scale. A full-size topo-fleet day looks up 120 distinct keys
        about 5,000 times."""
        key = (
            tuple((c.parallelism, c.src_server, c.dst_server) for c in busy),
            engine.background_traffic,
            engine.link_scale,
        )
        floor = self._floors.get(key)
        if floor is None:
            if len(self._floors) >= _MEMO_CAP:
                self._floors.clear()
            floor = self._floors[key] = engine.demand_floor(busy)
        return floor

    def _would_bind(
        self, running: list[tuple[JobRecord, TransferEngine]]
    ) -> bool:
        """Would the *current* (post-assignment) demands congest any
        flow? The fast path's escape hatch: a refill round whose new
        demands still clear every bottleneck needs no exact step, since
        the interior grid steps would compute the same ``None`` caps
        the span froze.

        Re-solves through :func:`~repro.topo.alloc.refill` seeded with
        the round's :meth:`_impose_caps` result, so only the flows
        whose demand the work assignment actually moved (and their
        interference components) are re-filled — the refill
        bit-identity contract makes the binding decision identical to
        a from-scratch ``allocate``. Read-only: the imposed result and
        signature are left untouched (they describe the
        *pre*-assignment demands the caps were computed for).
        """
        flows: list[FlowDemand] = []
        for record, engine in running:
            path = self._flow_paths.get(record.name)
            if path is None:
                continue
            demand = engine.demand_rate()
            if demand <= 0.0:
                continue
            flows.append(FlowDemand(record.name, path.bottlenecks, demand))
        if not flows:
            return False
        assert self.topology is not None
        prev = (
            self._alloc_prev
            if self._alloc_version == self.topology.version
            else None
        )
        result = refill(self.topology, flows, prev)
        return any(hop is not None for hop in result.binding.values())

    # ------------------------------------------------------------------
    # fault injection (chaos surface)
    #
    # Every injector mutates shared state that is *constant between
    # calls*, and callers (the service drivers) never macro-step across
    # an injection time — together that is the fast-path invalidation
    # contract: a frozen rate vector computed after an injection is
    # valid for exactly the same span the fixed-dt loop would observe,
    # so `run_until` stays bit-consistent with grid stepping under
    # chaos (see DESIGN.md §5g).
    # ------------------------------------------------------------------

    @property
    def link_scale(self) -> float:
        """Current brownout factor applied to the shared link."""
        return self._link_scale

    def set_link_scale(self, scale: float) -> None:
        """Scale the path's aggregate goodput for every job (brownout).

        Applies to every unfinished job's engine — running or still
        queued — and to engines submitted later. The scale is part of
        the shared allocation memo's key, so the memo needs no
        invalidation.
        """
        if scale <= 0:
            raise ValueError(f"link scale must be > 0, got {scale}")
        self._link_scale = float(scale)
        self._link_scale_active = True
        if self.topology is not None:
            # a path-wide brownout dims every bottleneck too; keeping
            # the topology in lock-step with the engines preserves the
            # single-link no-bind invariant under scale changes
            self.topology.set_global_scale(self._link_scale)
        for _record, engine in (*self._unstarted, *self._active):
            engine.set_link_scale(self._link_scale)

    def scale_bottleneck(self, name: str, scale: float) -> float:
        """Scale one named bottleneck's capacity (targeted brownout).

        The topology-aware sibling of :meth:`set_link_scale`: only
        flows whose placed path crosses ``name`` feel it, through the
        next round's water-fill. Engine rate caps carry the bottleneck
        capacities in their allocation-memo signatures, so no cache
        invalidation is needed — the next ``_impose_caps`` simply
        computes (and imposes) the new shares. Returns the bottleneck's
        new effective capacity in bytes/s.
        """
        if self.topology is None:
            raise ValueError(
                "scale_bottleneck requires a topology-backed simulator "
                "(pass topology=... at construction)"
            )
        return self.topology.scale_bottleneck(name, scale)

    @property
    def ambient_streams(self) -> float:
        """Background TCP streams beyond the coordinated jobs' own."""
        return self._ambient_streams

    def set_ambient_streams(self, streams: float) -> None:
        """Add a constant ambient cross-traffic load to the path.

        Every running job sees ``streams`` competing TCP streams *in
        addition to* the other jobs' — a background-traffic surge that
        squeezes all of them at once.
        """
        if streams < 0:
            raise ValueError("ambient stream count must be >= 0")
        self._ambient_streams = float(streams)

    @property
    def site_down(self) -> dict[tuple[str, int], Seconds]:
        """Injected server outages still in force (recovery on this
        simulator's clock)."""
        return {
            key: until
            for key, until in self._site_down.items()
            if until > self.time + 1e-12
        }

    def inject_server_failure(
        self,
        side: str,
        index: int,
        *,
        downtime: Seconds,
        restart_files: bool = False,
    ) -> int:
        """Crash one transfer server for every job sharing the path.

        Running jobs fail (and immediately reconnect on survivors —
        :meth:`TransferEngine.fail_server` with ``reopen=True``); jobs
        admitted during the outage inherit the remaining downtime via
        :meth:`TransferEngine.mark_server_down`. Returns the number of
        channels that failed across all running jobs. Refuses to take
        down the last available server on a side.
        """
        if side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        system = (
            self.testbed.source if side == "src" else self.testbed.destination
        )
        if not (0 <= index < system.server_count):
            raise ValueError(f"server index {index} out of range")
        if downtime <= 0:
            raise ValueError("downtime must be > 0")
        until = self.time + downtime
        down_now = {
            key
            for key, t in self._site_down.items()
            if key[0] == side and t > self.time + 1e-12
        }
        down_now.add((side, index))
        if len(down_now) >= system.server_count:
            raise RuntimeError("cannot fail the last available server")
        prior = self._site_down.get((side, index))
        self._site_down[(side, index)] = (
            until if prior is None else max(prior, until)
        )
        failed = 0
        for _record, engine in self._active:
            failed += engine.fail_server(
                side, index, downtime=downtime, restart_files=restart_files
            )
        return failed

    def inject_channel_failures(
        self, *, per_job: int = 1, restart_file: bool = False
    ) -> int:
        """Kill up to ``per_job`` open channels of every running job.

        Victims are taken in channel-opening order (deterministic under
        a fixed seed/schedule). A job losing *all* its channels is
        stranded — requeued files, no transport — until
        :meth:`readmit_stranded` (or engine-side recovery) re-opens
        channels for it. Returns the total number of channels killed.
        """
        if per_job < 1:
            raise ValueError("per_job must be >= 1")
        failed = 0
        for _record, engine in self._active:
            for channel in engine.channels[:per_job]:
                engine.fail_channel(channel, restart_file=restart_file)
                failed += 1
        return failed

    def readmit_stranded(self) -> list[str]:
        """Re-open planned channels for running jobs left with none.

        The service's recovery/rerouting hook: after a fault strands an
        admitted job (every channel cut), re-admission restores each
        chunk's planned concurrency on the currently-available servers
        — the transport-level equivalent of re-routing the job. Jobs
        with any surviving channel are left alone (work stealing
        already covers intra-job rebalancing). Returns the re-admitted
        job names in admission order.
        """
        readmitted: list[str] = []
        for record, engine in self._active:
            if engine.channels:
                continue
            for name, state in engine.chunks.items():
                engine.set_chunk_channels(name, state.plan.params.concurrency)
            readmitted.append(record.name)
        return readmitted

    def step(self) -> None:
        """Advance every running job one shared time step."""
        self._admit_jobs()
        running = self._active
        counts = [engine.busy_streams for _, engine in running]
        backgrounds = self._backgrounds(running, counts, sum(counts))
        for (_record, engine), background in zip(running, backgrounds):
            engine.set_background_streams(background)
        self._impose_caps(running)
        done = False
        for record, engine in running:
            before_energy = engine.total_energy
            engine.step()
            record.energy_joules += engine.total_energy - before_energy
            if engine.finished:
                record.completion_time = self.time + self.dt
                self._release_flow(record)
                done = True
        if done:
            self._drop_finished()
        self.time += self.dt

    def run_until(self, horizon: Seconds) -> list[JobRecord]:
        """Advance shared time toward ``horizon``, macro-stepping when
        safe, and return the jobs that completed — stopping at the
        first round boundary with a completion.

        Numerically equivalent to calling :meth:`step` in a loop while
        ``time < horizon - 1e-9``: every *round* freezes each running
        engine's pre-assignment busy-stream count exactly as one grid
        step does, then advances all engines ``k`` whole ``dt`` steps
        at once, with ``k`` bounded so that

        * no engine's own allocation changes at an interior step
          boundary (:meth:`TransferEngine.stable_steps`, its event
          horizon: the span may end with the step holding the event);
        * no *other* engine could have observed this engine's stream
          count change mid-span
          (:meth:`TransferEngine.count_stable_steps`; checked when two
          or more jobs run, and for a lone job whose topology cap is
          not pinned — a lone job sees no competing streams, but its
          cap follows its own pre-assignment demand);
        * work assignment did not just change a busy parallelism the
          peers sampled, or the demand a topology cap was computed
          from (refill check → single exact step);
        * a lone job whose imposed topology cap is below the
          :meth:`TransferEngine.demand_floor` of its post-assignment
          busy set is *pinned*: a lone flow's cap is its path's
          smallest capacity whatever its demand, so every interior
          boundary with a channel busy re-imposes the same cap. Such a
          round skips the refill check and the count bound; it ends
          instead by the first boundary at which every busy channel
          could be file-less — after the last of their in-flight files
          completes — unless ``count_stable_steps`` allows more. The
          next round holds the cap without re-reading the demand (see
          :meth:`_impose_caps`);
        * no queued arrival becomes admittable mid-span.

        While two or more jobs run, an engine is advanced only when its
        own allocation moves. Each keeps an *open span*: the busy list
        and rates of its last :meth:`TransferEngine.prepare_step`, the
        steps run since, and its own bound — ``stable_steps`` and
        ``count_stable_steps`` from the span's start, up to the steps
        left to ``horizon`` (taken lazily, see the bound loop below and
        DESIGN.md §4). A peer's event ends the round, not
        the span: at the next boundary the engine skips work
        assignment, both bounds and the advance as long as the steps
        it ran are below its bound and
        :meth:`TransferEngine.rates_hold` finds its unchanged busy list
        allotted the same rates under the new competing streams and
        caps; the rest of its bound joins the round's ``k``. It is
        advanced once, by every step it ran, when its rates move, when
        its bound is reached, and before this method returns. That is
        exact: inside its own and count bounds the busy set and the
        stream count the peers sample cannot change, so a boundary can
        move the engine only through its rates, which are re-checked at
        every one. A merged span is one the fast path would already
        take if no peer cut it, and it integrates energy at its average
        load like any other span. A lone job's span closes with its
        round.

        Time advances through ``advance_clock``, bit-equal to the grid
        loop's repeated ``+= dt`` additions, so round boundaries and
        completion timestamps are bit-equal to grid stepping. The
        method returns at the first completion so the caller can bill
        and re-admit at the completion's grid time, exactly as a
        per-step loop would; every engine is then fully advanced.

        With an observer attached, every round bumps one counter
        ``multi.round_bound.<reason>``: ``macro`` for a round of two or
        more steps; for a single-step round, the bound that cut it to
        one step — ``horizon`` or ``arrival`` (the round cap),
        ``refill``, ``own`` (an engine's ``stable_steps``) or ``count``
        (``count_stable_steps``). The counters sum to
        ``fixed_rounds + macro_rounds``.
        """
        dt = self.dt
        observer = self.observer
        completed: list[JobRecord] = []
        spans: dict[TransferEngine, _Span] = {}
        while self.time < horizon - 1e-9:
            self._admit_jobs()
            running = self._active
            if not running:
                break
            k_left = max(1, math.ceil((horizon - self.time - 1e-9) / dt))
            k_cap = k_left
            # the bound that set k last: it names a single-step round
            bound = "horizon"
            if k_cap > 1 and self._unstarted:
                # Never step past the grid point where a future
                # arrival becomes admittable. Arrived-but-slot-capped
                # jobs do not bound the span: their next admission
                # opportunity is a completion, where we return anyway.
                self._sort_unstarted()
                for record, _engine in self._unstarted:
                    if record.arrival_time > self.time + 1e-12:
                        k_arr = math.ceil(
                            (record.arrival_time - self.time - 1e-12) / dt
                        )
                        if k_arr < k_cap:
                            k_cap, bound = max(1, k_arr), "arrival"
                        break
            n = len(running)
            engines = [engine for _record, engine in running]
            counts0 = [engine.busy_streams for engine in engines]
            total0 = sum(counts0)
            backgrounds = self._backgrounds(running, counts0, total0)
            for engine, background in zip(engines, backgrounds):
                engine.set_background_streams(background)
            self._impose_caps(running)
            for record, engine in running:
                span = spans.get(engine)
                if span is not None:
                    if engine.rates_hold(span.busy, span.rates):
                        continue
                    self._close_span(record, engine, spans.pop(engine))
                spans[engine] = _Span(*engine.prepare_step())
            # With a topology attached, even a lone engine may be
            # coupled: its rate cap is recomputed every round from its
            # own pre-assignment busy channels. A count dip does *not*
            # only lower demand (past the congestion knee, or on a
            # contended disk, a subset can demand more than the whole
            # set). A lone *uncapped* flow stays exact for another
            # reason: the grid re-allocates every step on the
            # post-assignment set B, where a cap at or above B's demand
            # does not bind — so it needs no count bound, and no
            # refill step while its refilled demand would not bind
            # (``_would_bind``). A lone capped flow is pinned (see the
            # docstring) when B's demand floor clears the cap; the
            # 1e-9 margin covers the fill's freeze tolerance. An
            # uncapped single-link run takes exactly the legacy bounds
            # — the byte-identity the topo tests pin down.
            capped = self._placer is not None and any(
                engine.capacity_cap is not None for engine in engines
            )
            k = k_cap
            pinned = False
            if k > 1 and n == 1 and capped:
                cap = engines[0].capacity_cap
                busy, rates = spans[engines[0]].busy, spans[engines[0]].rates
                pinned = cap is not None and (
                    self._demand_floor(engines[0], busy) > cap * (1.0 + 1e-9)
                )
                if pinned:
                    self._hold = self._pinned_key(engines[0])
            coupled = n > 1 or (capped and not pinned)
            if pinned:
                # A channel completes a file before it can dip, so no
                # interior boundary before the last first-completion
                # can find every channel file-less. A span with no dip
                # at all (``count_stable_steps``) is safe as well.
                t_all = engines[0].last_completion_time(busy, rates)
                if t_all < math.inf:
                    k_all = math.ceil((t_all - 1e-9) / dt)
                    if k_all < k:
                        k_all = max(k_all, engines[0].count_stable_steps(rates, k))
                        if k_all < k:
                            k, bound = max(1, k_all), "count"
            elif k > 1 and (n > 1 or self._placer is not None):
                # Work assignment refilled or re-bound a channel: the
                # count the peers sample next round already differs
                # from the frozen one, so only one exact step is safe.
                # (``busy_streams`` now reads work assignment's count;
                # an engine whose span stayed open did no assignment.)
                refilled = False
                for engine, count in zip(engines, counts0):
                    if engine.busy_streams != count:
                        refilled = True
                        break
                if refilled:
                    if n > 1 or capped or self._would_bind(running):
                        k, bound = 1, "refill"
                    # else: a lone uncapped flow whose refilled
                    # (post-assignment) demand still clears every
                    # bottleneck — interior grid steps stay uncapped
                    # too, so the legacy span bounds apply unchanged
            # Every span is bounded from its start, and a bound that
            # would end with this round is taken again:
            # * an own bound taken before a file completed inside the
            #   span assumed the smallest queued file after it (the drain
            #   bound), so the engine is advanced to this boundary and
            #   prepared afresh, as it would be with no open span;
            # * a bound that only reached the cap it was computed under
            #   is extended: to one step past this round for a new span
            #   (its peers usually cut it sooner), to the horizon for one
            #   that outlived a round. A new span with no file due before
            #   that cap takes it unchecked; one with a file due in a
            #   single-step round closes with the round.
            # A lone job's span is capped at its round and closes with it.
            for record, engine in running:
                span = spans[engine]
                if (
                    span.steps
                    and span.reason == "own"
                    and span.limit - span.steps <= k
                    and not engine.quiet_for(span.busy, span.rates, span.steps)
                ):
                    self._close_span(record, engine, spans.pop(engine))
                    span = spans[engine] = _Span(*engine.prepare_step())
                if not span.final and span.limit - span.steps <= k:
                    busy, rates, steps = span.busy, span.rates, span.steps
                    cap = k if n == 1 else steps + k_left if steps else k + 1
                    limit, reason = cap, "horizon"
                    if n == 1 or steps or not engine.quiet_for(busy, rates, cap):
                        if n > 1 and not steps and k == 1:
                            limit = 1
                        elif cap > 1:
                            own = engine.stable_steps(busy, rates, cap)
                            if own < cap:
                                limit, reason = max(1, own), "own"
                            if coupled and limit > 1:
                                count = engine.count_stable_steps(rates, limit)
                                if count < limit:
                                    limit, reason = count, "count"
                    span.limit, span.reason = limit, reason
                    span.final = limit < cap or cap >= steps + k_left
                left = span.limit - span.steps
                if left < k:
                    k, bound = left, span.reason
            for record, engine in running:
                span = spans[engine]
                span.steps += k
                if span.steps >= span.limit:
                    self._close_span(record, engine, spans.pop(engine))
            # bit-equal to the grid's repeated additions
            self.time = advance_clock(self.time, dt, k)
            if k > 1:
                self.macro_rounds += 1
                self.macro_stepped_dts += k
                bound = "macro"
            else:
                self.fixed_rounds += 1
            if observer is not None:
                observer.count(f"multi.round_bound.{bound}")
            for record, engine in running:
                if engine.finished:
                    record.completion_time = self.time
                    engine.flush_fallback_events()
                    self._release_flow(record)
                    completed.append(record)
            if completed:
                self._drop_finished()
                break
        if spans:
            for record, engine in self._active:
                span = spans.pop(engine, None)
                if span is not None:
                    self._close_span(record, engine, span)
        return completed

    @staticmethod
    def _close_span(record: JobRecord, engine: TransferEngine, span: _Span) -> None:
        """Advance ``engine`` by the steps its span ran, at the span's
        frozen allocation, and book the energy on ``record``."""
        before_energy = engine.total_energy
        engine.advance_prepared(span.busy, span.rates, span.steps)
        record.energy_joules += engine.total_energy - before_energy

    def run(
        self, *, max_time: Seconds = 1e7, on_timeout: str = "raise"
    ) -> list[JobRecord]:
        """Run until every submitted job completes (or ``max_time``).

        A truncated run is never silent: with ``on_timeout="raise"``
        (the default) a :class:`TransferTimeout` lists the unfinished
        jobs; ``on_timeout="warn"`` emits a :class:`RuntimeWarning`
        instead and flags the affected records (``truncated=True``) so
        downstream deadline/queue-wait accounting can exclude them.
        """
        if on_timeout not in ("raise", "warn"):
            raise ValueError(
                f"on_timeout must be 'raise' or 'warn', got {on_timeout!r}"
            )
        while self.time < max_time and (self._unstarted or self._active):
            self.step()
        self.flush_topo_events()
        unfinished = [r for r in self._records if not r.finished]
        if unfinished:
            names = ", ".join(r.name for r in unfinished)
            message = (
                f"multi-transfer run hit max_time={max_time:g} s with "
                f"{len(unfinished)} unfinished job(s): {names}"
            )
            for record in unfinished:
                record.truncated = True
            if on_timeout == "raise":
                raise TransferTimeout(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        return self.records()

    # ------------------------------------------------------------------

    def records(self) -> list[JobRecord]:
        """Every submitted job's record, in submission order."""
        return list(self._records)

    @property
    def total_energy(self) -> Joules:
        """Joules drawn across all jobs so far."""
        return sum(record.energy_joules for record in self._records)

    @property
    def makespan(self) -> Seconds:
        """Completion time (seconds) of the last finished job (0 if none)."""
        times = [r.completion_time for r in self._records if r.completion_time]
        return max(times) if times else 0.0
