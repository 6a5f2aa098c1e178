"""Fluid-flow transfer engine.

The engine advances a set of live data channels in fixed time steps
(default 0.25 s). Each step it

1. solves a **max-min fair rate allocation** for all busy channels,
   subject to per-channel caps (buffer-limited TCP, host per-stream
   processing) and shared capacities (link goodput with the congestion
   knee, per-server NIC and disk aggregates);
2. advances every channel's file/gap state machine by the step;
3. converts each server's carried load into component utilizations and
   integrates the supplied power model into joules.

On top of the fixed-``dt`` stepper sits an **event-horizon fast path**
(:meth:`TransferEngine.run` with ``fast_path=True``, the default): when
the channel/queue/failure configuration is stable, the engine computes
the time to the next state change — the earliest file completion that
could change the rate allocation, the next server recovery, the next
background-traffic change point, or the caller's horizon — and advances
bytes and energy analytically in one macro-step at the frozen rate
vector, quantized to the ``dt`` grid. A macro-step runs through the step
that holds the event: the fixed stepper only re-allocates at the next
step boundary, and the advance replays completions and pops inside the
span exactly (an event within 1e-9 s of its step's end is left to the
next span). Fixed-``dt`` steps remain where the next event falls in the
very next step, and under opaque background traffic. Results are
numerically equivalent to the pure stepper (see DESIGN.md, "Fast path /
fixed-dt duality": bytes and durations agree to floating-point
round-off, energy to <=1e-3 relative because power inside a macro-step
is integrated at the interval-average throughput).

Everything is deterministic; the adaptive algorithms of the paper
(HTEE's probe phase, SLAEE's feedback loop) interact with a running
engine through :meth:`TransferEngine.run` (bounded horizons) and
:meth:`TransferEngine.set_chunk_channels` (live re-allocation), exactly
the control surface the custom GridFTP client exposes.
"""

from __future__ import annotations

import enum
import heapq
import math
import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Callable, Iterable, Sequence
from typing import Optional, Union

from repro.datasets.files import FileInfo
from repro.netsim import tcp
from repro.netsim.channel import Channel, FileProgress
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.link import NetworkPath
from repro.netsim.params import TransferParams
from repro.netsim.utilization import Utilization, compute_utilization
from repro.units import Bytes, BytesPerSecond, Joules, Seconds, Watts

__all__ = [
    "Binding",
    "ChunkPlan",
    "ChunkState",
    "EngineSnapshot",
    "PiecewiseTraffic",
    "StepRecord",
    "TransferEngine",
    "PowerFn",
    "PowerKernel",
]

#: Signature of the pluggable end-system power model: watts drawn by a
#: server of the given spec at the given utilization (load-dependent part).
PowerFn = Callable[[ServerSpec, Utilization], Watts]

#: A power model evaluated for one fixed ``(spec, channels, streams)``
#: server configuration: maps throughput (bytes/s) to ``(watts, cpu,
#: memory, disk, nic)`` — the total and the four Eq. 1 component watts.
PowerKernel = Callable[[float], tuple[float, float, float, float, float]]

#: Completion times :meth:`TransferEngine.count_stable_steps` walks
#: per single-channel chunk before it stops looking for a dip.
_COUNT_WALK_CAP = 512

#: Entries an allocation, power-group or demand-floor memo holds
#: before it is emptied. One :class:`_MemoScope` serves every engine of
#: a :class:`~repro.netsim.multi.MultiTransferSimulator`, and every
#: engine of an inline fleet run's shards on one testbed. Distinct
#: allocation keys of one full-size perfbench day: 524 (spray-deferral,
#: one simulator), 451 in topo-fleet's one shared table (15 shards) and
#: 47 (chunky-day); power-group keys are fewer (128 on spray-deferral,
#: 121 on topo-fleet).
_MEMO_CAP = 4096


class _MemoScope:
    """The memo tables engines on one path, end systems and power
    model share: rate allocations (:meth:`TransferEngine._allocate_rates`),
    power groups (:meth:`TransferEngine._step_terms`) and the demand
    floors of lone capped flows
    (:meth:`~repro.netsim.multi.MultiTransferSimulator._demand_floor`).
    Each key holds everything its entry depends on besides those fixed
    inputs, so no table is ever invalidated, only emptied at
    :data:`_MEMO_CAP`."""

    __slots__ = ("alloc", "power", "floors")

    def __init__(self) -> None:
        self.alloc: dict[tuple, tuple[float, ...]] = {}
        self.power: dict[tuple, tuple] = {}
        self.floors: dict[tuple, float] = {}


#: Every integer below this is an exact float64 (53-bit significand).
_EXACT_INT = 2**53

_file_size = operator.attrgetter("size")


def advance_clock(
    t0: float, dt: Seconds, k: int, times: Optional[list[float]] = None
) -> float:
    """The clock after ``k`` repeated ``t0 += dt`` additions.

    The one home of the fixed stepper's time arithmetic for every
    macro-step. On the exact dyadic grid — ``dt`` a power of two,
    ``t0`` a non-negative whole multiple of it and ``t0/dt + k < 2**53``
    — every partial sum ``(t0/dt + j) * dt`` is a representable float,
    so each addition is exact and ``t0 + k*dt`` is the same number. Off
    that grid (``dt = 0.1``, a clock set between grid points) the
    additions are repeated one by one: float addition is not
    associative, and ``t0 + k*dt`` would drift. ``times``, when given,
    is extended with every intermediate step time.
    """
    # exact tests, not tolerances: fmod is exact, and frexp's mantissa
    # is exactly 0.5 for a power of two
    if k > 0 and t0 >= 0.0 and t0 % dt == 0.0 and math.frexp(dt)[0] == 0.5:  # repro: noqa[RPL003]
        n = t0 / dt  # exact: dt is a power of two
        if n + k < _EXACT_INT:
            if times is not None:
                times.extend([(n + j) * dt for j in range(1, k + 1)])
            return t0 + k * dt
    t = t0
    for _ in range(k):
        t += dt
        if times is not None:
            times.append(t)
    return t


class Binding(enum.Enum):
    """How new channels are bound to a site's transfer servers.

    ``PACK`` is the paper's custom GridFTP client behaviour (all
    channels on one node, keeping the other nodes asleep); ``SPREAD``
    is Globus Online / globus-url-copy behaviour (round-robin across
    every node, waking all of them).
    """

    PACK = "pack"
    SPREAD = "spread"


@dataclass(frozen=True)
class PiecewiseTraffic:
    """Piecewise-constant background-traffic profile.

    ``points`` is a sorted sequence of ``(start_time, competing_streams)``
    plateaus; the value at time ``t`` is the last plateau whose start is
    ``<= t`` (0 before the first). Unlike an opaque callable, this
    profile exposes :meth:`next_change`, so the engine's event-horizon
    fast path can jump analytically between plateaus instead of
    sampling every fixed step. Opaque callables remain fully supported
    — the engine simply keeps fixed-``dt`` stepping for them.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        times = [t for t, _ in self.points]
        if times != sorted(times):
            raise ValueError("PiecewiseTraffic points must be sorted by time")
        if any(v < 0 for _, v in self.points):
            raise ValueError("competing stream counts must be >= 0")

    def __call__(self, t: Seconds) -> float:
        """Competing stream count at simulated time ``t`` (seconds)."""
        idx = bisect_right(self.points, (t, math.inf)) - 1
        return self.points[idx][1] if idx >= 0 else 0.0

    def next_change(self, t: Seconds) -> Seconds:
        """Time (seconds) of the next plateau boundary strictly after
        ``t`` (``inf`` once past the last one)."""
        idx = bisect_right(self.points, (t, math.inf))
        return self.points[idx][0] if idx < len(self.points) else math.inf


@dataclass(frozen=True)
class ChunkPlan:
    """A chunk as planned by a transfer algorithm: files + parameters.

    ``params.concurrency`` is the *initial* channel count; adaptive
    algorithms change it later through the engine.
    """

    name: str
    files: tuple[FileInfo, ...]
    params: TransferParams

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("chunk name must be non-empty")

    @cached_property
    def total_size(self) -> int:
        """Sum of the plan's file sizes (computed once: it is frozen)."""
        return sum(f.size for f in self.files)

    @property
    def file_count(self) -> int:
        return len(self.files)


@dataclass
class ChunkState:
    """Live transfer state of one chunk inside the engine."""

    plan: ChunkPlan
    queue: deque[FileProgress]
    bytes_done: float = 0.0
    files_done: int = 0
    #: Monotone lower bound on the smallest ``remaining`` of any queued
    #: file — set from the plan at registration, lowered whenever a
    #: partially-transferred file is requeued, never raised. Staleness
    #: is safe: the fast path uses it to *under*-estimate future file
    #: sizes, which only makes its event horizon more conservative.
    min_queued_lb: float = math.inf

    @property
    def remaining_bytes(self) -> float:
        queued = sum(fp.remaining for fp in self.queue)
        return queued  # in-flight remainders are tracked by channels

    @property
    def exhausted(self) -> bool:
        return not self.queue


@dataclass(frozen=True)
class EngineSnapshot:
    """A point-in-time measurement used by adaptive controllers.

    Fields carry the engine's internal units: ``time`` in seconds,
    ``bytes`` in bytes, ``energy`` in joules.
    """

    time: Seconds
    bytes: Bytes
    energy: Joules
    files: int

    def throughput_since(self, earlier: "EngineSnapshot") -> BytesPerSecond:
        """Mean payload rate (bytes/s) since ``earlier`` (0 if no time passed)."""
        dt = self.time - earlier.time
        if dt <= 0:
            return 0.0
        return (self.bytes - earlier.bytes) / dt

    def energy_since(self, earlier: "EngineSnapshot") -> Joules:
        """Joules accumulated since ``earlier``."""
        return self.energy - earlier.energy


@dataclass(frozen=True)
class StepRecord:
    """Optional per-step trace entry (enable with ``record_trace=True``).

    Under the fast path, records inside a macro-step are synthesized at
    the interval-average throughput/power (still one record per ``dt``).
    ``time`` is in seconds, ``throughput`` in bytes/s, ``power`` in
    watts.
    """

    time: Seconds
    throughput: BytesPerSecond
    power: Watts
    active_channels: int


class TransferEngine:
    """Simulates one end-to-end transfer job between two sites."""

    def __init__(
        self,
        path: NetworkPath,
        source: EndSystem,
        destination: EndSystem,
        power_model: PowerFn,
        *,
        dt: Seconds = 0.25,
        binding: Binding = Binding.PACK,
        work_stealing: bool = True,
        record_trace: bool = False,
        background_traffic: Union[Callable[[float], float], float, None] = None,
        fast_path: bool = True,
        observer=None,
        _memo: Optional[_MemoScope] = None,
    ) -> None:
        """``background_traffic`` (optional) maps simulated time to the
        number of competing TCP streams sharing the path (a plain
        number is treated as a constant profile — see
        :meth:`set_background_streams`). The link is
        divided per-stream (TCP fairness), so the transfer's share is
        ``ours / (ours + competing)`` of the aggregate goodput — which
        is exactly why opening more channels/streams claws bandwidth
        back from cross-traffic, and how the adaptive algorithms are
        exercised against changing network conditions.

        ``fast_path`` enables the event-horizon macro-stepper used by
        :meth:`run` (``step`` always performs one fixed-``dt`` step).
        Pass a :class:`PiecewiseTraffic` (or any callable exposing
        ``next_change(t)``) as ``background_traffic`` to keep the fast
        path active under cross-traffic; opaque callables silently
        disable it (the engine then behaves exactly like the fixed
        stepper).

        ``observer`` (optional, a :class:`repro.obs.Observer`) receives
        structured events — allocation changes, work-stealing
        adoptions, failures/recoveries, macro-steps vs fixed-``dt``
        fallback stretches — and metric updates. Failure events precede
        the state changes they cause: a ``channel_failed`` comes before
        the ``channel_closed`` it triggers, and a ``server_failed``
        before its closures and reconnections. With ``observer=None``
        (the default) every instrumentation site reduces to one
        ``is not None`` check and the engine allocates nothing extra
        per step (the zero-cost guarantee DESIGN.md documents).

        ``_memo`` is the :class:`_MemoScope` of the
        :class:`~repro.netsim.multi.MultiTransferSimulator` that builds
        this engine; every engine of that simulator shares the same
        path, end systems and power model, so they share the tables. A
        standalone engine owns a private scope."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        self.path = path
        self.source = source
        self.destination = destination
        self.power_model = power_model
        self.dt = dt
        self.binding = binding
        self.work_stealing = work_stealing
        self.record_trace = record_trace
        self.background_traffic = background_traffic
        self.fast_path = fast_path
        self.observer = observer
        #: Fixed steps taken since the last macro-step while an observer
        #: is attached (coalesced into one ``fixed_dt_fallback`` event).
        self._fallback_steps = 0

        self.time = 0.0
        self.total_bytes = 0.0
        #: Bytes the network actually carried: payload + framing
        #: headers + retransmitted segments under congestion loss.
        self.total_wire_bytes = 0.0
        self.total_energy = 0.0
        self.total_files = 0
        #: Files registered across all chunks: the engine has finished
        #: once ``total_files`` reaches it.
        self._planned_files = 0
        self.trace: list[StepRecord] = []
        self._drained_logged: set[str] = set()
        self.chunks: dict[str, ChunkState] = {}
        #: Chunks registered via :meth:`submit_chunk` whose planned
        #: channels have not been opened yet (deferred admission).
        self._pending_admission: list[str] = []
        #: Open channels, insertion-ordered (id(channel) -> channel).
        #: O(1) membership/removal; the public ``channels`` property
        #: materializes the ordered list.
        self._channels: dict[int, Channel] = {}
        #: Bumped by every channel open and close, so a coordinator can
        #: tell whether the channel set changed between two rounds.
        self.channel_version = 0
        #: True once work assignment has found every chunk queue empty.
        #: Only :meth:`add_chunk` and :meth:`close_channel` put files
        #: back in a queue (the rest only pop), so they clear it; while
        #: it holds, an idle channel has nothing to steal.
        self._queues_drained = False
        #: Per-chunk channel registry (chunk name -> ordered channels),
        #: kept in sync by open/close/reassign.
        self._by_chunk: dict[str, list[Channel]] = {}
        #: Memoized rate allocations (see :meth:`_allocate_rates`) and,
        #: per busy signature, the source- and destination-side
        #: ``(server, power kernel)`` pairs and the wire factor (see
        #: :meth:`_step_terms`). Both keys hold everything the entry
        #: depends on besides the fixed path, end systems and power
        #: model, so neither table is cleared on a channel change and
        #: one :class:`_MemoScope`'s engines share them.
        memo = _MemoScope() if _memo is None else _memo
        self._alloc_cache, self._power_memo = memo.alloc, memo.power
        #: Work assignment's record of the round in progress: the busy
        #: list, each chunk's busy channels as indices into it, and the
        #: busy signature. The round's allocation, event horizon and
        #: advance read it instead of re-walking the channels; the
        #: advance drops it (see :meth:`_chunk_view`).
        self._round: Optional[tuple[list[Channel], dict[str, list[int]], tuple]] = None
        #: The round's per-chunk view at its frozen rates, built on
        #: first use as ``(busy, rates, entries)`` and dropped by the
        #: advance.
        self._view: Optional[tuple[list[Channel], Sequence[float], list]] = None
        #: Streams of the channels holding a file (:attr:`busy_streams`),
        #: or ``None`` when a closed channel has made it unknown.
        self._busy_streams: Optional[int] = 0
        self._spread_counter = 0
        #: Servers currently failed, mapped to their recovery time.
        self._down_servers: dict[tuple[str, int], float] = {}
        #: Link brownout factor applied to the shared aggregate goodput
        #: (1.0 = healthy; see :meth:`set_link_scale`).
        self._link_scale = 1.0
        #: Topology-imposed aggregate rate cap (bytes/s) on this
        #: engine's flow, or ``None`` when uncoupled (see
        #: :meth:`set_capacity_cap`).
        self._capacity_cap: Optional[float] = None
        #: Counters for post-mortem inspection.
        self.channel_failures = 0
        self.server_failures = 0
        #: Macro-steps taken / fixed steps taken (perf introspection).
        self.macro_steps = 0
        self.fixed_steps = 0
        #: Joules attributed per Eq. 1 component (cpu, memory, disk,
        #: nic), summed in floats; :attr:`component_energy` reads them.
        self._component_j = (0.0, 0.0, 0.0, 0.0)
        self._attributed = False
        owner = getattr(power_model, "__self__", None)
        #: The model's ``power_kernel`` factory; ``None`` for any other
        #: PowerFn, which :meth:`_generic_kernel` serves.
        self._kernel_fn: Optional[Callable[[ServerSpec, int, int], PowerKernel]] = (
            getattr(owner, "power_kernel", None)
        )

    # ------------------------------------------------------------------
    # setup / channel management
    # ------------------------------------------------------------------

    @property
    def channels(self) -> list[Channel]:
        """The open channels, in opening order."""
        return list(self._channels.values())

    @property
    def component_energy(self) -> dict[str, float]:
        """Joules attributed per Eq. 1 component (cpu/memory/disk/nic),
        filled once a step has run when the power model is a bound
        method of a model that provides ``power_kernel`` (the
        fine-grained Eq. 1 model does); empty otherwise."""
        if not self._attributed:
            return {}
        return dict(zip(("cpu", "memory", "disk", "nic"), self._component_j))

    def add_chunk(self, plan: ChunkPlan, *, open_channels: bool = True) -> ChunkState:
        """Register a chunk; optionally open its planned channels.

        Files are queued largest-first (longest-processing-time order),
        the standard makespan heuristic — it prevents a many-gigabyte
        file landing on a single channel as the very last item while
        every other channel idles.
        """
        if plan.name in self.chunks:
            raise ValueError(f"duplicate chunk name: {plan.name!r}")
        ordered = sorted(plan.files, key=_file_size, reverse=True)
        state = ChunkState(
            plan=plan,
            queue=deque([FileProgress(f, float(f.size)) for f in ordered]),
            min_queued_lb=float(ordered[-1].size) if ordered else math.inf,
        )
        self.chunks[plan.name] = state
        self._planned_files += len(ordered)
        if ordered:
            self._queues_drained = False
        if open_channels:
            for _ in range(plan.params.concurrency):
                self.open_channel(plan.name)
        return state

    def submit_chunk(self, plan: ChunkPlan) -> ChunkState:
        """Register a chunk whose channels open later (deferred admission).

        The public form of "queue a job before it is admitted": the
        chunk's files are registered immediately (so ``finished`` and
        byte accounting see them) but no channel opens — and therefore
        no energy accrues — until :meth:`admit_pending` runs. Used by
        :class:`~repro.netsim.multi.MultiTransferSimulator` and the
        service layer for admission-controlled workloads.
        """
        state = self.add_chunk(plan, open_channels=False)
        self._pending_admission.append(plan.name)
        return state

    @property
    def pending_chunks(self) -> list[str]:
        """Names of submitted chunks still awaiting admission."""
        return list(self._pending_admission)

    def admit_pending(self) -> int:
        """Open the planned channels of every pending chunk.

        Returns the number of channels opened. Idempotent once the
        pending set is drained.
        """
        opened = 0
        for name in self._pending_admission:
            concurrency = self.chunks[name].plan.params.concurrency
            self.set_chunk_channels(name, concurrency)
            opened += concurrency
        self._pending_admission.clear()
        return opened

    def set_background_streams(self, streams: float) -> None:
        """Set a constant competing-stream count without closure churn.

        Coordinators that recompute cross-traffic every step (e.g. the
        multi-transfer simulator dividing one link between jobs) would
        otherwise allocate a fresh closure per job per step; a plain
        number is stored as-is, participates in the allocation memo via
        its value, and — being constant between calls — never disables
        the event-horizon fast path.
        """
        if streams < 0:
            raise ValueError("competing stream count must be >= 0")
        self.background_traffic = float(streams)

    def _competing_streams(self) -> float:
        """The competing stream count at the current time (numbers and
        callables both supported as ``background_traffic``)."""
        bg = self.background_traffic
        if bg is None:
            return 0.0
        if callable(bg):
            return max(0.0, bg(self.time))
        return max(0.0, float(bg))

    def _available_servers(self, side: str) -> Sequence[int]:
        count = (self.source if side == "src" else self.destination).server_count
        if not self._down_servers:
            return range(count)
        return [i for i in range(count) if (side, i) not in self._down_servers]

    def open_channel(self, chunk_name: str) -> Channel:
        """Open one new data channel serving ``chunk_name``.

        Server choice honors the binding strategy but skips servers
        currently marked failed.
        """
        plan = self.chunks[chunk_name].plan
        src_avail = self._available_servers("src")
        dst_avail = self._available_servers("dst")
        if not src_avail or not dst_avail:
            raise RuntimeError("no available transfer server to open a channel on")
        if self.binding is Binding.PACK:
            src, dst = src_avail[0], dst_avail[0]
        else:
            src = src_avail[self._spread_counter % len(src_avail)]
            dst = dst_avail[self._spread_counter % len(dst_avail)]
            self._spread_counter += 1
        channel = Channel(
            chunk_name=chunk_name,
            parallelism=plan.params.parallelism,
            pipelining=plan.params.pipelining,
            src_server=src,
            dst_server=dst,
            rtt=self.path.rtt,
            file_overhead=(
                self.source.server.per_file_overhead
                + self.destination.server.per_file_overhead
            ),
        )
        self._channels[id(channel)] = channel
        self._by_chunk.setdefault(chunk_name, []).append(channel)
        self.channel_version += 1
        self._log_event("channel_opened",
                        chunk=chunk_name, src_server=src, dst_server=dst)
        return channel

    def close_channel(self, channel: Channel) -> None:
        """Close a channel, returning any in-flight file to its queue."""
        state = self.chunks[channel.chunk_name]
        if channel.current is not None:
            state.min_queued_lb = min(state.min_queued_lb, channel.current.remaining)
            self._queues_drained = False
        channel.release_to(state.queue)
        del self._channels[id(channel)]
        self._by_chunk[channel.chunk_name].remove(channel)
        self.channel_version += 1
        # the one change outside a round that can drop a held file:
        # recount on the next read (an opened channel holds none)
        self._busy_streams = None
        self._log_event("channel_closed", chunk=channel.chunk_name)

    def channels_for(self, chunk_name: str) -> list[Channel]:
        """The channels currently assigned to ``chunk_name``."""
        return list(self._by_chunk.get(chunk_name, ()))

    def set_chunk_channels(self, chunk_name: str, count: int) -> None:
        """Grow or shrink a chunk's channel set to exactly ``count``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        current = self.channels_for(chunk_name)
        for channel in current[count:]:
            self.close_channel(channel)
        for _ in range(count - len(current)):
            self.open_channel(chunk_name)

    def set_allocation(self, allocation: dict[str, int]) -> None:
        """Apply a full chunk -> channel-count allocation at once.

        Emits exactly one ``allocation_change`` observability event per
        call (not one per chunk), so adaptive controllers can replay
        their decision history from the event stream.
        """
        for chunk_name, count in allocation.items():
            self.set_chunk_channels(chunk_name, count)
        if self.observer is not None:
            self.observer.emit(
                self.time, "allocation_change", allocation=dict(allocation)
            )

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def fail_channel(self, channel: Channel, *, restart_file: bool = False) -> None:
        """Kill one data channel (connection reset, process crash).

        The in-flight file returns to its chunk's queue; with
        ``restart_file=True`` its progress is discarded (no GridFTP
        restart markers), otherwise the remaining bytes are picked up
        where the failed channel left off. The ``channel_failed`` event
        is logged before the ``channel_closed`` it causes.
        """
        if id(channel) not in self._channels:
            raise ValueError("channel is not open on this engine")
        if restart_file and channel.current is not None:
            channel.current.remaining = float(channel.current.file.size)
        self.channel_failures += 1
        self._log_event("channel_failed",
                        chunk=channel.chunk_name, restart_file=restart_file)
        self.close_channel(channel)

    def fail_server(
        self,
        side: str,
        index: int,
        *,
        downtime: Seconds = 60.0,
        restart_files: bool = False,
        reopen: bool = True,
    ) -> int:
        """Take one transfer server down for ``downtime`` seconds.

        Every channel bound to it fails (files requeued); with
        ``reopen=True`` the client immediately reconnects the same
        number of channels on the surviving servers, as a real transfer
        client would. Returns the number of channels that failed. The
        ``server_failed`` event precedes the channel closures (and
        reconnections) it triggers.
        """
        if side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        count = (self.source if side == "src" else self.destination).server_count
        if not (0 <= index < count):
            raise ValueError(f"server index {index} out of range")
        if downtime <= 0:
            raise ValueError("downtime must be > 0")
        attr = "src_server" if side == "src" else "dst_server"
        victims = [c for c in self._channels.values() if getattr(c, attr) == index]
        self._down_servers[(side, index)] = self.time + downtime
        if not self._available_servers(side):
            # cannot operate with every server down; undo and refuse
            del self._down_servers[(side, index)]
            raise RuntimeError("cannot fail the last available server")
        self.server_failures += 1
        self._log_event("server_failed", side=side, index=index,
                        downtime=downtime, channels_lost=len(victims))
        by_chunk: dict[str, int] = {}
        for channel in victims:
            by_chunk[channel.chunk_name] = by_chunk.get(channel.chunk_name, 0) + 1
            if restart_files and channel.current is not None:
                channel.current.remaining = float(channel.current.file.size)
            self.close_channel(channel)
        if reopen:
            for chunk_name, n in by_chunk.items():
                for _ in range(n):
                    self.open_channel(chunk_name)
        return len(victims)

    def mark_server_down(
        self, side: str, index: int, *, until: Seconds
    ) -> None:
        """Register a server as failed until engine time ``until``
        without touching any channels.

        The channel-churning path is :meth:`fail_server`; this is the
        bookkeeping-only form used when an engine is admitted *during*
        an outage injected at the coordinator level — it has no
        channels to fail yet, but must still avoid the down server
        until the shared recovery time. Extending an existing outage
        keeps the later recovery time.
        """
        if side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        count = (self.source if side == "src" else self.destination).server_count
        if not (0 <= index < count):
            raise ValueError(f"server index {index} out of range")
        if until <= self.time:
            return  # already recovered in this engine's clock
        prior = self._down_servers.get((side, index))
        self._down_servers[(side, index)] = (
            until if prior is None else max(prior, until)
        )
        if not self._available_servers(side):
            if prior is None:
                del self._down_servers[(side, index)]
            else:
                self._down_servers[(side, index)] = prior
            raise RuntimeError("cannot fail the last available server")
        if prior is None:
            self._log_event(
                "server_failed", side=side, index=index,
                downtime=until - self.time, channels_lost=0,
            )

    @property
    def link_scale(self) -> float:
        """Current brownout factor on the link's aggregate goodput."""
        return self._link_scale

    def set_link_scale(self, scale: float) -> None:
        """Scale the shared link capacity (brownout injection).

        ``scale`` multiplies the aggregate-goodput term of
        :meth:`_allocate_rates` (per-channel and per-server caps are
        end-system properties and stay untouched). The scale is part of
        the allocation memo key, and the value is constant between
        calls, so the event-horizon fast path stays bit-consistent with
        the fixed stepper — exactly the contract
        :meth:`set_background_streams` follows.
        """
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"link scale must be > 0 and finite, got {scale}")
        if scale != self._link_scale:
            self._link_scale = float(scale)
            self._log_event("link_scaled", scale=scale)

    @property
    def capacity_cap(self) -> Optional[float]:
        """Topology-imposed aggregate rate cap (bytes/s), or ``None``."""
        return self._capacity_cap

    def set_capacity_cap(self, cap: Optional[float]) -> None:
        """Cap this flow's share of the network (topology coupling).

        A coordinator running flows over a shared
        :class:`~repro.topo.core.Topology` water-fills each bottleneck
        per round and imposes the flow's network-wide share here: the
        cap clamps the shared link-capacity term of
        :meth:`_allocate_rates` (per-channel and per-server caps are
        end-system properties and stay untouched). Like ``link_scale``
        the cap is part of the allocation memo key, so two rounds at the
        same cap and busy set still hit the memo although the cap
        changes round to round.
        """
        if cap is not None and cap < 0:
            raise ValueError(f"capacity cap must be >= 0, got {cap}")
        self._capacity_cap = None if cap is None else float(cap)

    def demand_rate(self) -> float:
        """The flow's uncapped aggregate demand (bytes/s).

        What the busy channels would jointly carry if the topology
        imposed no cap — the demand this flow registers on the
        bottlenecks along its path. Served by the same memoized
        allocator the steppers use (with the cap masked, under its own
        memo signature), so repeated calls at an unchanged
        configuration are cache hits.
        """
        busy = [c for c in self._channels.values() if c.busy]
        if not busy:
            return 0.0
        saved = self._capacity_cap
        self._capacity_cap = None
        try:
            rates = self._allocate_rates(busy)
        finally:
            self._capacity_cap = saved
        return sum(rates)

    def demand_floor(self, busy: Sequence[Channel]) -> float:
        """A lower bound on the uncapped demand (:meth:`demand_rate`) of
        every non-empty subset of ``busy``, at the current background
        streams and link scale (``inf`` for an empty ``busy``).

        The max-min fill freezes every channel at its own cap or inside
        a saturated shared group, so a subset carries at least the
        smallest of: any channel's cap, the link share at any stream
        count a subset can have, and each server's NIC/disk capacity at
        any count of its channels a subset can hold. Every count is
        scanned, not just the whole set's, since demand is not monotone
        in the busy set: past the congestion knee, or on a contended
        disk, a smaller subset meets a higher term; against competing
        streams, or on a striped disk, a lower one.
        ``MultiTransferSimulator.run_until`` uses it to prove a lone
        flow's topology cap holds while its channels dip.
        """
        if not busy:
            return math.inf
        competing = self._competing_streams()
        parallelisms = [c.parallelism for c in busy]
        floor = min(self._channel_cap(p) for p in set(parallelisms))
        sums = {0}
        for p in parallelisms:
            sums |= {s + p for s in sums}
        sums.discard(0)
        for streams in sums:
            floor = min(floor, self._link_capacity(streams, competing))
        for spec, attr in (
            (self.source.server, "src_server"),
            (self.destination.server, "dst_server"),
        ):
            # every server of a side shares its spec: scan up to the
            # most channels any one of them holds
            per_server: dict[int, int] = {}
            for c in busy:
                index = getattr(c, attr)
                per_server[index] = per_server.get(index, 0) + 1
            floor = min(floor, spec.nic_rate)
            for j in range(1, max(per_server.values()) + 1):
                floor = min(floor, spec.disk.aggregate_capacity(j))
        return floor

    @property
    def down_servers(self) -> dict[tuple[str, int], Seconds]:
        """Currently failed servers and their recovery times (seconds)."""
        return dict(self._down_servers)

    def _recover_servers(self) -> None:
        for key, until in list(self._down_servers.items()):
            if self.time >= until:
                del self._down_servers[key]
                self._log_event("server_recovered", side=key[0], index=key[1])

    def _log_event(self, kind: str, **detail) -> None:
        if self.observer is not None:
            self.observer.emit(self.time, kind, **detail)

    @property
    def active_channel_count(self) -> int:
        return sum(
            1 for c in self._channels.values() if c.busy or not self._queue_empty_for(c)
        )

    # ------------------------------------------------------------------
    # progress accounting
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True when every file of every chunk has fully transferred
        (a file is queued, held by a channel or completed, so this is
        every queue empty and no channel busy)."""
        return self.total_files == self._planned_files

    @property
    def busy_streams(self) -> int:
        """TCP streams of the channels that currently hold a file.

        Counted by the walks that already visit every channel that can
        hold one: work assignment (after it hands out files) and the
        advance (after the step). Closing a channel is the one change
        between rounds that can drop a held file; it leaves the count
        unknown, and the next read recounts.
        """
        streams = self._busy_streams
        if streams is None:
            streams = self._busy_streams = sum(
                [c.parallelism for c in self._channels.values() if c.current is not None]
            )
        return streams

    @property
    def total_planned_bytes(self) -> Bytes:
        """Total payload registered across all chunks, in bytes."""
        return float(sum(s.plan.total_size for s in self.chunks.values()))

    def snapshot(self) -> EngineSnapshot:
        """An immutable (time, bytes, energy, files) measurement point."""
        return EngineSnapshot(
            time=self.time,
            bytes=self.total_bytes,
            energy=self.total_energy,
            files=self.total_files,
        )

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def run(
        self,
        duration: Optional[Seconds] = None,
        *,
        max_time: Seconds = 1e7,
        until: Optional[Callable[[], bool]] = None,
    ) -> Seconds:
        """Advance until completion or for ``duration`` seconds.

        Returns the simulated time that actually elapsed. ``max_time``
        is a safety net against configurations that can never finish.
        ``until`` (optional) is an extra stop predicate evaluated
        between steps — the loop ends as soon as it returns True.

        With ``fast_path`` enabled, each iteration is one round of the
        lock-step API (:meth:`prepare_step` → :meth:`stable_steps` →
        :meth:`advance_prepared`), so stable stretches are advanced in
        macro-steps (see the module docstring); without it, each
        iteration is one :meth:`step`. ``until`` is evaluated
        between fast-path iterations: predicates watching
        allocation-changing events — queue drains, channels leaving the
        busy set, failures/recoveries, traffic change points — are
        honored at the same ``dt`` granularity as fixed stepping (a
        macro-step ends with the step that holds such an event, which
        is where the fixed stepper first evaluates the predicate true),
        while predicates on finer-grained state (e.g. per-file counters
        mid-queue) may overshoot by up to one macro-step. Controllers
        needing sub-second sampling should call ``run(duration=...)``
        with the sampling window instead.
        """
        start = self.time
        observer = self.observer
        fixed_before = self.fixed_steps
        horizon = min(self.time + duration, max_time) if duration is not None else max_time
        while (
            not self.finished
            and self.time < horizon - 1e-12
            and not (until is not None and until())
        ):
            if self.fast_path:
                busy, rates = self.prepare_step()
                # Steps the fixed-dt loop would take to reach the horizon.
                steps = max(0, math.ceil((horizon - self.time - 1e-12) / self.dt))
                k = self.stable_steps(busy, rates, steps)
                self.advance_prepared(busy, rates, max(1, k))
            else:
                self.step()
        if observer is not None:
            observer.count("engine.fixed_steps", self.fixed_steps - fixed_before)
            # close the trailing fallback stretch at the run boundary
            self.flush_fallback_events()
        return self.time - start

    def step(self) -> None:
        """Advance the simulation one fixed ``dt`` step (the grid
        oracle: no horizon, no macro logic, no fallback counting)."""
        busy, rates = self.prepare_step()
        self._advance(busy, rates, 1)

    # ------------------------------------------------------------------
    # event-horizon fast path
    # ------------------------------------------------------------------

    def stable_steps(
        self, busy: list[Channel], rates: Sequence[float], max_steps: int
    ) -> int:
        """How many whole ``dt`` steps, at most ``max_steps``, the frozen
        allocation stays the one the fixed stepper would use (the event
        horizon). ``rates`` is :meth:`prepare_step`'s allocation, aligned
        with ``busy``.

        Events considered: the earliest possible drain of any non-empty
        chunk queue (a drained chunk idles or re-assigns its channels),
        any file completion on a chunk whose queue is already empty
        (the completing channel leaves the busy set or steals work),
        the next server recovery, the next background-traffic change
        point, and the caller's ``max_steps``.

        The span runs *through* the step that holds the first event.
        The fixed stepper freezes the busy set and the rates at the
        start of each step and re-allocates only at the next boundary,
        so an event inside step ``j`` changes nothing before step
        ``j + 1``; :meth:`_advance` replays completions, gaps and pops
        inside the span exactly. An event within 1e-9 s of the end of
        its step is not taken in: the span then ends one step earlier.
        With no event before the cap, ``max_steps`` is returned whole.
        Returns 0 or 1 when only an exact fixed step is safe.

        ``max_steps`` is the cap in whole steps, used as given: it is not
        rebuilt from a float horizon ``time + max_steps * dt``, which at
        clocks above about 9000 s can round to one step more. :meth:`run`
        derives it from its horizon; lock-step callers such as
        ``MultiTransferSimulator.run_until`` pass their round size or
        the steps left to their horizon.
        """
        if max_steps <= 1:
            return max_steps
        dt = self.dt
        bg = self.background_traffic
        if bg is None or not callable(bg):
            t_event = math.inf  # none, or a constant stream count
        else:
            next_change = getattr(bg, "next_change", None)
            if next_change is None:
                return 0  # opaque traffic profile: sample every step
            t_event = next_change(self.time) - self.time
        if self._down_servers:
            for until in self._down_servers.values():
                t_event = min(t_event, until - self.time)
        cap_time = min(t_event, (max_steps + 1) * dt)
        # cap_time only falls, so the chunk order cannot change the result
        for state, chans, crates, ttcs in self._chunk_view(busy, rates):
            if state.queue:
                t_chunk = self._drain_lower_bound(state, chans, crates, ttcs, cap_time)
            else:
                t_chunk = min(ttcs)
            if t_chunk < cap_time:
                cap_time = t_chunk
                if cap_time < dt:
                    return 0
        if math.isinf(cap_time):
            return max_steps
        k = int((cap_time - 1e-9) // dt)
        if cap_time < (k + 1) * dt - 1e-9:
            k += 1  # the event lies safely inside step k + 1: take it in
        return max(0, min(k, max_steps))

    def _drain_lower_bound(
        self,
        state: ChunkState,
        chans: list[Channel],
        rates: Sequence[float],
        ttcs: list[float],
        cap_time: float,
    ) -> float:
        """A safe lower bound on when ``state``'s queue could empty.

        ``chans`` are the chunk's busy channels, ``rates`` and ``ttcs``
        their frozen rates and in-flight completion times. The queue
        loses one file per completion on the chunk's
        channels, so its earliest possible drain is the time of the
        L-th completion under the *optimistic* schedule where every
        post-completion file is the smallest one that could still be
        queued (the chunk's maintained ``min_queued_lb``) and every
        channel runs at its allocated rate. For short queues the
        channels' optimistic completion sequences are heap-merged
        exactly; for long ones an O(channels) analytic bound is used:
        by time ``t`` channel ``i`` has completed at most
        ``(t - first_i)/spacing_i + 1`` files, so the L-th completion
        cannot happen before ``min(first) + (L - C) / sum(1/spacing)``.
        """
        pops_needed = len(state.queue)
        s_min = state.min_queued_lb
        merged: list[tuple[float, float]] = []
        free_pops = False
        for c, rate, first in zip(chans, rates, ttcs):
            if rate > 0.0:  # stalled channels never complete
                spacing = c.per_file_gap + s_min / rate
                free_pops = free_pops or spacing <= 0.0
                merged.append((first, spacing))
        if not merged:
            return math.inf
        if free_pops:
            return min(first for first, _ in merged)  # degenerate: free pops
        if pops_needed > 64:
            f_min = min(first for first, _ in merged)
            if len(merged) > 2:
                # a float sum of three or more terms depends on their
                # order: add in the chunk registry's order, which work
                # stealing can make differ from the busy list's
                rank = {id(c): i for i, c in enumerate(self._by_chunk[state.plan.name])}
                live = [(rank[id(c)], r) for c, r in zip(chans, rates) if r > 0.0]
                merged = [pair for _, pair in sorted(zip(live, merged))]
            per_sec = sum(1.0 / spacing for _, spacing in merged)
            return f_min + max(0.0, (pops_needed - len(merged)) / per_sec)
        heapq.heapify(merged)
        t = 0.0
        for _ in range(pops_needed):
            t, spacing = heapq.heappop(merged)
            if t >= cap_time:
                return t
            heapq.heappush(merged, (t + spacing, spacing))
        return t

    def _advance(self, busy: list[Channel], rates: Sequence[float], k: int) -> None:
        """Advance ``k`` whole ``dt`` steps at the frozen ``rates``.

        ``k == 1`` is the exact fixed step: every busy channel advances
        by ``dt`` in busy order. For ``k >= 2`` the channels of dense
        chunks are replayed by :meth:`_advance_dense` and every other
        channel advances in a single state-machine call, which is exact.
        Energy is integrated once at the interval-average throughput.
        The loop also recounts :attr:`busy_streams` (a channel outside
        ``busy`` held no file after work assignment, so it holds none
        now) and drops the round's views.
        """
        dt = self.dt
        span = k * dt
        if k == 1:
            self.fixed_steps += 1
            dense = None
        else:
            self.macro_steps += 1
            # a dense chunk has two busy channels
            dense = self._advance_dense(busy, rates, k) if len(busy) > 1 else None
        src_groups, dst_groups, wire_factor = self._step_terms(busy)
        # one busy server per site (the PACK binding): its load is the
        # running total, no per-server tally needed
        single = len(src_groups) == 1 and len(dst_groups) == 1
        log_files = self.observer is not None

        chunks = self.chunks
        # the running totals are summed in locals, in channel order
        total_bytes = self.total_bytes
        total_wire_bytes = self.total_wire_bytes
        total_files = self.total_files
        streams = 0
        moved = 0.0
        moved_src: dict[int, float] = {}
        moved_dst: dict[int, float] = {}
        if dense:
            # dense channels are accounted after the others, in busy order
            order = [(c, r) for c, r in zip(busy, rates) if c not in dense]
            order.extend((c, None) for c in dense)
        else:
            order = zip(busy, rates)
        for channel, rate in order:
            state = chunks[channel.chunk_name]
            if rate is None:
                bytes_moved, files_completed = dense[channel]
            else:
                bytes_moved, files_completed = channel._advance(rate, span, state.queue)
            if channel.current is not None:
                streams += channel.parallelism
            state.bytes_done += bytes_moved
            state.files_done += files_completed
            total_bytes += bytes_moved
            total_wire_bytes += bytes_moved * wire_factor
            total_files += files_completed
            if files_completed and log_files:
                self._log_event(
                    "file_completed", chunk=channel.chunk_name, count=files_completed
                )
                if state.exhausted and channel.chunk_name not in self._drained_logged:
                    self._drained_logged.add(channel.chunk_name)
                    self._log_event("chunk_drained", chunk=channel.chunk_name)
            if single:
                moved += bytes_moved
            else:
                moved_src[channel.src_server] = (
                    moved_src.get(channel.src_server, 0.0) + bytes_moved
                )
                moved_dst[channel.dst_server] = (
                    moved_dst.get(channel.dst_server, 0.0) + bytes_moved
                )
        self.total_bytes = total_bytes
        self.total_wire_bytes = total_wire_bytes
        self.total_files = total_files
        self._busy_streams = streams
        self._round = self._view = None

        if single:
            load = moved / span
            power = self._instant_power((src_groups[0][1](load), dst_groups[0][1](load)), span)
        elif busy:
            moved = sum(moved_src.values())
            power = self._instant_power(
                [kernel(moved_src.get(idx, 0.0) / span) for idx, kernel in src_groups]
                + [kernel(moved_dst.get(idx, 0.0) / span) for idx, kernel in dst_groups],
                span,
            )
        else:
            power = 0.0
        self.total_energy += power * span
        # The clock lands where k repeated additions would (see
        # advance_clock), so the two modes agree on `time` to the last
        # bit — off the dyadic grid a plain `+= k*dt` would drift.
        step_times: Optional[list[float]] = [] if self.record_trace else None
        self.time = advance_clock(self.time, dt, k, step_times)

        if step_times is not None:
            avg_throughput = moved / span
            active = len(busy)
            self.trace.extend(
                StepRecord(
                    time=st,
                    throughput=avg_throughput,
                    power=power,
                    active_channels=active,
                )
                for st in step_times
            )

    def _advance_dense(
        self, busy: list[Channel], rates: Sequence[float], k: int
    ) -> dict[Channel, list]:
        """Advance the busy channels of *dense* chunks — two or more
        busy channels sharing a queue, one completing inside the span —
        ``k`` steps, keeping the fixed stepper's pop interleaving, and
        return their ``[bytes moved, files completed]`` in busy order.

        Pops only happen at file completions (and the ``take_from`` at
        the following step boundary), so stretches with no completion
        on any dense channel are advanced in a single exact call, and
        only the completion steps are replayed at ``dt`` in channel order.
        """
        dt = self.dt
        span = k * dt
        dense_chunks: set[str] = set()
        for state, chans, _crates, ttcs in self._chunk_view(busy, rates):
            if len(chans) >= 2 and state.queue and min(ttcs) <= span:
                dense_chunks.add(state.plan.name)
        if not dense_chunks:
            return {}
        crates = {
            id(c): r for c, r in zip(busy, rates) if c.chunk_name in dense_chunks
        }
        dense = [c for c in busy if id(c) in crates]
        acc: dict[Channel, list] = {c: [0.0, 0] for c in dense}
        queues = {id(c): self._effective_queue(c) for c in dense}
        steps_left = k
        while steps_left > 0:
            jump = steps_left
            for c in dense:
                if c.current is None:
                    # File-less channel: it would pop (and possibly
                    # finish) a file mid-jump, unseen by the jump
                    # bound. Replay at dt until it holds a file.
                    jump = 0
                    break
                ttc = c.time_to_completion(crates[id(c)])
                if math.isinf(ttc):
                    continue
                j = int(ttc / dt)
                if j * dt >= ttc:  # land strictly before the completion
                    j -= 1
                if j < jump:
                    jump = j
            if jump > 0:
                for c in dense:
                    moved, completed = c._advance(crates[id(c)], jump * dt, queues[id(c)])
                    a = acc[c]
                    a[0] += moved
                    a[1] += completed
                steps_left -= jump
                if steps_left <= 0:
                    break
            # completion step: replay one fixed-dt step exactly
            for c in dense:
                if not c.busy:
                    c.take_from(queues[id(c)])
            for c in dense:
                moved, completed = c._advance(crates[id(c)], dt, queues[id(c)])
                a = acc[c]
                a[0] += moved
                a[1] += completed
            steps_left -= 1
        return acc

    # ------------------------------------------------------------------
    # lock-step API (the one stepping pipeline)
    # ------------------------------------------------------------------
    #
    # One step is three phases: prepare (recoveries + work assignment +
    # rate allocation), bound (how many whole steps are stable — the
    # event horizon), advance. :meth:`run` drives them for one engine;
    # a coordinator running several engines against one path (see
    # ``repro.netsim.multi``) drives them in shared ``dt`` rounds. Both
    # reach channel advancement through the single :meth:`_advance`
    # body, so every caller inherits the engine's "fast path / fixed-dt
    # duality" guarantees.

    def prepare_step(self) -> tuple[list[Channel], tuple[float, ...]]:
        """Run the pre-advance phase of one step and return the frozen
        ``(busy, rates)`` pair: ``rates[i]`` is ``busy[i]``'s rate in
        bytes/s.

        Server recoveries, work assignment (idle channels pull files /
        steal work) and rate allocation. Feed the result to
        :meth:`stable_steps` / :meth:`advance_prepared`.
        """
        if self._down_servers:
            self._recover_servers()
        busy = self._assign_work()
        return busy, self._allocate_rates(busy, self._busy_streams)

    def rates_hold(self, busy: list[Channel], rates: Sequence[float]) -> bool:
        """Whether ``busy``, a prepared busy list not yet advanced, is
        still allotted exactly ``rates`` at the current competing
        streams, capacity cap and link scale (a memo hit when none of
        them moved). A lock-step coordinator asks this at a round
        boundary inside the span ``busy`` was prepared for."""
        return self._allocate_rates(busy, self._busy_streams) == rates

    def quiet_for(self, busy: list[Channel], rates: Sequence[float], steps: int) -> bool:
        """Whether no in-flight file of ``busy`` can complete at the
        frozen ``rates`` before ``steps`` whole ``dt`` steps have ended
        (with the 1e-9 s guard), no server is down and the competing
        stream count is a constant.

        Then :meth:`stable_steps` and :meth:`count_stable_steps` both
        return at least ``steps``: every event they look for but a
        server recovery or a traffic change starts with a file
        completion. This answers it without the chunk view those two
        build, and stops at the first file due.
        """
        if self._down_servers or callable(self.background_traffic):
            return False
        dt = self.dt
        for c, r in zip(busy, rates):
            if r > 0.0 and (c.gap_remaining + c.current.remaining / r - 1e-9) // dt < steps:
                return False
        return True

    def last_completion_time(self, busy: list[Channel], rates: Sequence[float]) -> float:
        """Seconds until every in-flight file of ``busy`` has completed
        at the frozen ``rates`` (``inf`` if one is stalled)."""
        return max(ttc for *_, ttcs in self._chunk_view(busy, rates) for ttc in ttcs)

    def _chunk_view(self, busy: list[Channel], rates: Sequence[float]) -> list:
        """The round's busy channels grouped by chunk, as
        ``(state, channels, rates, completion times)`` entries.

        Work assignment already grouped the busy list (``_round``), so
        this only adds each channel's ``time_to_completion`` at its
        frozen rate, once. The event horizon, the count bound, the dense
        check and the pinned-round bound all read the same view, which
        the advance drops. A ``busy`` list work assignment did not
        build (or ``rates`` of another round) gets a fresh view.
        """
        view = self._view
        if view is not None and view[0] is busy and view[1] is rates:
            return view[2]
        inf = math.inf
        ttcs = [
            c.gap_remaining + c.current.remaining / r if r > 0.0 else inf
            for c, r in zip(busy, rates)
        ]
        held = self._round
        if held is not None and held[0] is busy:
            groups = held[1]
        else:
            groups = {}
            for i, c in enumerate(busy):
                groups.setdefault(c.chunk_name, []).append(i)
        chunks = self.chunks
        if len(groups) == 1:
            (name,) = groups
            entries = [(chunks[name], busy, rates, ttcs)]
        else:
            entries = [
                (
                    chunks[name],
                    [busy[i] for i in members],
                    [rates[i] for i in members],
                    [ttcs[i] for i in members],
                )
                for name, members in groups.items()
            ]
        self._view = (busy, rates, entries)
        return entries

    def count_stable_steps(self, rates: Sequence[float], max_steps: int) -> int:
        """Whole ``dt`` steps before this engine's *pre-assignment*
        busy-stream count could change.

        A lock-step coordinator re-samples every engine's busy
        parallelism at each round boundary *before* work assignment and
        feeds it to the other engines as competing traffic. That count
        dips for one step whenever a file completion's trailing
        control-channel gap straddles a step boundary (the channel ends
        the step file-less and is only refilled by the next round's
        assignment). :meth:`stable_steps` does not bound those
        completions — they are invisible to this engine's own rates —
        so a coordinator running *coupled* engines must additionally
        bound its macro rounds here.

        For a chunk served by a single busy channel the completion
        schedule is walked exactly (queue order is deterministic) and
        only an actual straddling gap bounds the span, ending it *at*
        the step boundary where the dip becomes visible. For shared
        queues (two or more busy channels) the pop interleaving is not
        predicted; the span conservatively ends strictly before the
        first possible completion. Ending a span early is always safe —
        counts are re-sampled from true state at every round boundary —
        so near-boundary fp ties are treated as dips.

        ``rates`` is the allocation :meth:`prepare_step` returned for the
        round in progress (aligned with its busy list), so this is
        called between :meth:`prepare_step` and the round's advance.
        """
        entries = self._chunk_view(self._round[0], rates)
        dt = self.dt
        span = max_steps * dt
        k = max_steps
        guard = 1e-9
        for state, chans, crates, ttcs in entries:
            if not state.queue:
                continue
            if len(chans) > 1:
                t_first = min(ttcs)
                if t_first < span:
                    k = min(k, int((t_first - guard) // dt))
            else:
                rate = crates[0]
                if rate <= 0.0:
                    continue  # stalled: never completes, count frozen
                gap = chans[0].per_file_gap
                t = ttcs[0]
                walked = 0
                queued = iter(state.queue)
                while t < span and walked < _COUNT_WALK_CAP:
                    boundary = (math.floor(t / dt) + 1.0) * dt
                    if t + gap > boundary - guard:
                        # dip visible at ``boundary``: span may end there
                        k = min(k, int(boundary / dt))
                        break
                    walked += 1
                    nxt = next(queued, None)
                    if nxt is None:
                        break  # queue exhausts: the drain bound applies
                    t += gap + nxt.remaining / rate
            if k <= 1:
                return 1
        return k

    def advance_prepared(
        self, busy: list[Channel], rates: Sequence[float], steps: int
    ) -> None:
        """Advance ``steps`` whole ``dt`` steps at a prepared
        allocation, with the fast path's observer accounting.

        ``steps == 1`` performs one exact fixed step (identical to the
        tail of :meth:`step`) and extends the coalesced
        ``fixed_dt_fallback`` stretch; ``steps >= 2`` emits one
        ``macro_step`` event and macro-steps analytically. The caller
        is responsible for having bounded ``steps`` with
        :meth:`stable_steps` (and, when coupled to other engines,
        :meth:`count_stable_steps`).
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        observer = self.observer
        if observer is not None:
            if steps == 1:
                self._fallback_steps += 1
            else:
                self.flush_fallback_events()
                observer.emit(
                    self.time, "macro_step", steps=steps, span_s=steps * self.dt
                )
        self._advance(busy, rates, steps)

    def flush_fallback_events(self) -> None:
        """Close the open coalesced fixed-``dt`` fallback stretch.

        Called before each macro-step and at a :meth:`run` boundary;
        coordinators driving the engine through :meth:`advance_prepared`
        call this when the transfer finishes so the last stretch is not
        lost.
        """
        if self.observer is not None and self._fallback_steps:
            self.observer.emit(
                self.time, "fixed_dt_fallback", steps=self._fallback_steps
            )
            self._fallback_steps = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _queue_empty_for(self, channel: Channel) -> bool:
        return not self.chunks[channel.chunk_name].queue

    def _effective_queue(self, channel: Channel) -> deque[FileProgress]:
        """The queue a channel draws from (its current chunk's)."""
        return self.chunks[channel.chunk_name].queue

    def _assign_work(self) -> list[Channel]:
        """Give every idle channel a file before allocating rates, and
        return the channels that then hold one (the busy set), in
        opening order.

        With work stealing on, an idle channel whose own chunk has
        drained is *re-allocated* to the chunk with the most remaining
        bytes — it adopts that chunk's pipelining and parallelism, just
        as the custom GridFTP client reopens a freed channel against a
        different chunk (the paper's multi-chunk mechanism).

        The same walk counts the busy streams (:attr:`busy_streams`),
        builds the busy signature and groups the busy channels per
        chunk for the round's later phases (``_round``).
        """
        busy: list[Channel] = []
        groups: dict[str, list[int]] = {}
        signature: list[tuple[int, int, int]] = []
        streams = 0
        for channel in self._channels.values():
            if channel.current is None:
                own = self.chunks[channel.chunk_name].queue
                if not own and self.work_stealing and not self._queues_drained:
                    candidates = [s for s in self.chunks.values() if s.queue]
                    if not candidates:
                        self._queues_drained = True
                    else:
                        target = max(
                            candidates, key=lambda s: sum(fp.remaining for fp in s.queue)
                        )
                        self._log_event(
                            "channel_reassigned",
                            from_chunk=channel.chunk_name,
                            to_chunk=target.plan.name,
                        )
                        self._by_chunk[channel.chunk_name].remove(channel)
                        self._by_chunk.setdefault(target.plan.name, []).append(channel)
                        channel.retune(
                            target.plan.name,
                            max(1, target.plan.params.parallelism),
                            max(1, target.plan.params.pipelining),
                        )
                        own = target.queue
                if not channel.take_from(own):
                    continue
            members = groups.get(channel.chunk_name)
            if members is None:
                groups[channel.chunk_name] = [len(busy)]
            else:
                members.append(len(busy))
            parallelism = channel.parallelism
            streams += parallelism
            signature.append((parallelism, channel.src_server, channel.dst_server))
            busy.append(channel)
        self._busy_streams = streams
        self._round = (busy, groups, tuple(signature))
        return busy

    def _allocate_rates(
        self, busy: Sequence[Channel], streams: Optional[int] = None
    ) -> tuple[float, ...]:
        """Max-min fair (progressive-filling) rate allocation.

        Individual caps: buffer-limited TCP for the channel's stream
        count, host per-stream processing on both endpoints. Shared
        capacities: link aggregate goodput (congestion knee), and each
        server's NIC rate and disk aggregate.

        Allocations are memoized on a total key — the per-channel
        (parallelism, src, dst) tuple, the competing background stream
        count, the capacity cap and the link scale — because the engine
        re-solves an unchanged configuration on almost every step of a
        stable stretch, and each job of a service day re-solves the
        configurations its predecessors met. Nothing else the result
        depends on (path, end systems) differs between the engines
        sharing the table, so it is never cleared on a channel change.

        Returns the rates in busy order (the memo's own tuple).
        ``streams``, when given, is the busy set's stream count.
        """
        if not busy:
            return ()
        competing = self._competing_streams()
        signature = (
            self._busy_signature(busy),
            competing,
            self._capacity_cap,
            self._link_scale,
        )
        cached = self._alloc_cache.get(signature)
        if cached is not None:
            return cached

        src_spec = self.source.server
        dst_spec = self.destination.server

        caps = {id(c): self._channel_cap(c.parallelism) for c in busy}
        if streams is None:
            streams = sum(c.parallelism for c in busy)
        link_capacity = self._link_capacity(streams, competing)
        if self._capacity_cap is not None and self._capacity_cap < link_capacity:
            # topology water-fill share: the flow's network-wide cap
            link_capacity = self._capacity_cap
        groups: list[tuple[float, list[int]]] = [
            (link_capacity, [id(c) for c in busy])
        ]
        for side, spec, attr in (
            ("src", src_spec, "src_server"),
            ("dst", dst_spec, "dst_server"),
        ):
            for server_channels in _group_by_server(busy, attr).values():
                capacity = min(
                    spec.nic_rate,
                    spec.disk.aggregate_capacity(len(server_channels)),
                )
                groups.append((capacity, [id(c) for c in server_channels]))

        # TCP fairness is per *stream*, so a channel carrying p parallel
        # streams claims p shares of any shared capacity.
        weights = {id(c): float(c.parallelism) for c in busy}
        filled = _max_min_fill(caps, groups, weights)
        rates = tuple([filled[id(c)] for c in busy])
        if len(self._alloc_cache) >= _MEMO_CAP:
            self._alloc_cache.clear()
        self._alloc_cache[signature] = rates
        return rates

    def _channel_cap(self, parallelism: int) -> float:
        """One channel's own rate cap: buffer-limited TCP over its
        ``parallelism`` streams and host per-stream processing on both
        endpoints."""
        return min(
            tcp.channel_network_cap(self.path, parallelism),
            self.source.server.per_channel_rate,
            self.destination.server.per_channel_rate,
        )

    def _link_capacity(self, streams: int, competing: float) -> float:
        """The flow's share of the link's aggregate goodput with
        ``streams`` streams of its own against ``competing`` others,
        brownout applied (the topology cap is not)."""
        if competing > 0.0:
            shared = tcp.aggregate_goodput(self.path, streams + competing)
            capacity = shared * streams / (streams + competing)
        else:
            capacity = tcp.aggregate_goodput(self.path, streams)
        # exact 1.0 sentinel set only by set_link_scale
        if self._link_scale != 1.0:  # repro: noqa[RPL003]
            # brownout injection (part of the memo key)
            capacity *= self._link_scale
        return capacity

    def _generic_kernel(self, spec: ServerSpec, channels: int, streams: int) -> PowerKernel:
        """Power kernel for any :data:`PowerFn`: builds the utilization
        and calls the model on every evaluation."""
        power_model = self.power_model

        def kernel(throughput: float) -> tuple[float, float, float, float, float]:
            util = compute_utilization(
                spec, channels=channels, streams=streams, throughput=throughput
            )
            return power_model(spec, util), 0.0, 0.0, 0.0, 0.0

        return kernel

    def _busy_signature(self, busy: list[Channel]) -> tuple:
        """The per-channel ``(parallelism, src, dst)`` tuple of ``busy``.

        The allocation and the step terms of one round both key on it;
        work assignment (which is what changes a channel's parallelism)
        builds it for the round's busy list.
        """
        held = self._round
        if held is not None and held[0] is busy:
            return held[2]
        return tuple([(c.parallelism, c.src_server, c.dst_server) for c in busy])

    def _step_terms(self, busy: list[Channel]) -> tuple:
        """The busy servers of each side with their power kernels, and
        the wire bytes per payload byte, memoized on the busy signature
        (it fixes each server's channel and stream count, and the total
        stream count the loss rate depends on)."""
        signature = self._busy_signature(busy)
        terms = self._power_memo.get(signature)
        if terms is None:
            kernel_fn = self._kernel_fn or self._generic_kernel
            src_groups, dst_groups = (
                tuple(
                    (idx, kernel_fn(site.server, len(chans), sum(c.parallelism for c in chans)))
                    for idx, chans in _group_by_server(busy, attr).items()
                )
                for site, attr in ((self.source, "src_server"), (self.destination, "dst_server"))
            )
            step_loss = tcp.loss_fraction(self.path, sum(c.parallelism for c in busy))
            wire_factor = (1.0 + self.path.header_overhead) / max(1e-9, 1.0 - step_loss)
            terms = (src_groups, dst_groups, wire_factor)
            if len(self._power_memo) >= _MEMO_CAP:
                self._power_memo.clear()
            self._power_memo[signature] = terms
        return terms

    def _instant_power(
        self, points: Iterable[tuple[float, float, float, float, float]], interval: float
    ) -> float:
        """Total load-dependent watts across both sites over
        ``interval`` seconds of carried load (``interval`` is ``dt``
        for a fixed step, the whole span for a macro-step). ``points``
        are the busy servers' power-kernel results (see
        :meth:`_step_terms`) at the load they carried, source servers
        first; their Eq. 1 components are attributed in the same
        order."""
        power = 0.0
        attribute = self._kernel_fn is not None
        if attribute:
            e_cpu, e_mem, e_disk, e_nic = self._component_j
        for watts, cpu, memory, disk, nic in points:
            power += watts
            if attribute:
                e_cpu += cpu * interval
                e_mem += memory * interval
                e_disk += disk * interval
                e_nic += nic * interval
        if attribute:
            self._component_j = (e_cpu, e_mem, e_disk, e_nic)
            self._attributed = True
        return power

    def server_utilizations(self) -> dict[str, Utilization]:
        """Current utilization per active server (for inspection/tests)."""
        result: dict[str, Utilization] = {}
        busy = [c for c in self._channels.values() if c.busy]
        for site, attr in ((self.source, "src_server"), (self.destination, "dst_server")):
            for server_idx, server_channels in _group_by_server(busy, attr).items():
                result[f"{site.name}[{server_idx}]"] = compute_utilization(
                    site.server,
                    channels=len(server_channels),
                    streams=sum(c.parallelism for c in server_channels),
                    throughput=0.0,
                )
        return result


def _group_by_server(busy: Sequence[Channel], attr: str) -> dict[int, list[Channel]]:
    """``busy`` grouped by server index (``attr`` is ``"src_server"`` or
    ``"dst_server"``), in order of first appearance."""
    by_server: dict[int, list[Channel]] = {}
    for c in busy:
        by_server.setdefault(getattr(c, attr), []).append(c)
    return by_server


def _max_min_fill(
    caps: dict[int, float],
    groups: Iterable[tuple[float, list[int]]],
    weights: Optional[dict[int, float]] = None,
) -> dict[int, float]:
    """Weighted progressive filling: raise all unfrozen flows at rates
    proportional to their weights, freezing flows as they hit their
    individual cap or exhaust a shared group capacity. Weighted max-min
    fairness; terminates because each round freezes at least one flow
    or one group."""
    if weights is None:
        weights = {k: 1.0 for k in caps}
    rates = {k: 0.0 for k in caps}
    remaining = [(capacity, list(members)) for capacity, members in groups]
    active = set(caps)
    eps = 1e-9

    while active:
        # `increment` is the common per-unit-weight raise this round.
        increment = min((caps[k] - rates[k]) / weights[k] for k in active)
        for capacity, members in remaining:
            live_weight = sum(weights[m] for m in members if m in active)
            if live_weight > 0:
                increment = min(increment, capacity / live_weight)
        if increment <= eps:
            break
        for k in active:
            rates[k] += increment * weights[k]
        new_remaining = []
        frozen: set[int] = set()
        for capacity, members in remaining:
            live = [m for m in members if m in active]
            capacity -= increment * sum(weights[m] for m in live)
            if capacity <= eps:
                frozen.update(live)
            new_remaining.append((capacity, members))
        remaining = new_remaining
        for k in list(active):
            if k in frozen or rates[k] >= caps[k] - eps:
                active.discard(k)
    return rates
