"""Transfer planning advisor: closed-form what-if analysis.

Downstream users often want a recommendation *before* moving anything:
which parameters to use on a path, what throughput to expect, what the
transfer will cost in joules. This module answers those questions
analytically from the same first-order model the simulator integrates
— per-channel caps, shared link/disk capacities, pipelining efficiency,
and the Eq. 1 power model — so its predictions can be checked against
engine runs (see ``tests/test_advisor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro import units
from repro.core.allocation import mine_walk
from repro.core.chunks import Chunk, PartitionPolicy, partition_files
from repro.datasets.files import Dataset
from repro.netsim import tcp
from repro.netsim.disk import SingleDisk
from repro.netsim.engine import ChunkPlan, PowerKernel
from repro.netsim.params import TransferParams
from repro.power.models import FineGrainedPowerModel
from repro.testbeds.specs import Testbed

__all__ = [
    "ChunkAdvice",
    "PlanPredictor",
    "TransferAdvice",
    "advise",
    "plan_predictor",
    "plan_predictor_clear",
    "predict_plan_performance",
]


@dataclass(frozen=True)
class ChunkAdvice:
    """Recommendation and first-order prediction for one chunk."""

    name: str
    file_count: int
    total_bytes: int
    params: TransferParams
    per_channel_rate: float
    bottleneck: str
    pipelining_efficiency: float

    @property
    def effective_rate(self) -> float:
        """Aggregate chunk rate after pipelining stalls (bytes/s)."""
        return (
            self.params.concurrency
            * self.per_channel_rate
            * self.pipelining_efficiency
        )


@dataclass(frozen=True)
class TransferAdvice:
    """The full plan: per-chunk advice plus whole-transfer predictions."""

    testbed: str
    chunks: tuple[ChunkAdvice, ...]
    total_bytes: int
    predicted_throughput: float
    predicted_duration_s: float
    predicted_power_w: float
    predicted_energy_j: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def predicted_throughput_mbps(self) -> float:
        return units.to_mbps(self.predicted_throughput)

    def render(self) -> str:
        """The plan as an aligned, human-readable block of text."""
        lines = [f"Transfer plan for {self.testbed}:"]
        for advice in self.chunks:
            lines.append(
                f"  {advice.name:<7s} {advice.file_count:>6d} files "
                f"{units.to_GB(advice.total_bytes):7.2f} GB -> "
                f"pp={advice.params.pipelining} p={advice.params.parallelism} "
                f"cc={advice.params.concurrency} "
                f"(~{units.to_mbps(advice.effective_rate):.0f} Mbps, "
                f"{advice.bottleneck}-bound)"
            )
        lines.append(
            f"  predicted: {self.predicted_throughput_mbps:.0f} Mbps, "
            f"{self.predicted_duration_s:.0f} s, "
            f"{self.predicted_power_w:.1f} W, "
            f"{units.kilojoules(self.predicted_energy_j):.1f} kJ"
        )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _channel_cap(testbed: Testbed, parallelism: int) -> tuple[float, str]:
    """One channel's rate cap and the name of the binding constraint."""
    candidates = {
        "network": tcp.channel_network_cap(testbed.path, parallelism),
        "host": min(
            testbed.source.server.per_channel_rate,
            testbed.destination.server.per_channel_rate,
        ),
    }
    bottleneck = min(candidates, key=candidates.get)
    return candidates[bottleneck], bottleneck


def _pipelining_efficiency(testbed: Testbed, avg: float, params: TransferParams,
                           per_channel_rate: float) -> float:
    """Fraction of channel time spent moving payload, given per-file
    control gaps (mirrors Channel.per_file_gap). ``avg`` is the chunk's
    average file size in bytes."""
    if avg <= 0 or per_channel_rate <= 0:
        return 1.0
    transfer_time = avg / per_channel_rate
    gap = (
        2.5 * testbed.path.rtt / params.pipelining
        + testbed.source.server.per_file_overhead
        + testbed.destination.server.per_file_overhead
    )
    return transfer_time / (transfer_time + gap)


class PlanPredictor:
    """The testbed-fixed half of :func:`predict_plan_performance`.

    Holds what every prediction on one testbed shares: the per-channel
    cap per parallelism, and per ``(channels, streams)`` total the
    shared-capacity bound and both sites' Eq. 1 power kernels
    (:meth:`FineGrainedPowerModel.power_kernel
    <repro.power.models.FineGrainedPowerModel.power_kernel>`, the one
    the engine integrates, bit-identical to ``compute_utilization`` +
    ``power``). Get one with :func:`plan_predictor`.
    """

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self._power_kernel = FineGrainedPowerModel(testbed.coefficients).power_kernel
        self._caps: dict[int, float] = {}
        self._points: dict[tuple[int, int], tuple[float, PowerKernel, PowerKernel]] = {}

    def channel_rate(self, params: TransferParams, avg: float) -> tuple[float, float]:
        """``(cap, efficiency)`` of one channel of a chunk whose files
        average ``avg`` bytes: its rate cap (bytes/s) and the fraction
        of its time spent moving payload."""
        cap = self._caps.get(params.parallelism)
        if cap is None:
            cap = self._caps[params.parallelism] = _channel_cap(
                self.testbed, params.parallelism
            )[0]
        return cap, _pipelining_efficiency(self.testbed, avg, params, cap)

    def operating_point(
        self, demand: float, channels: int, streams: int
    ) -> tuple[float, float]:
        """(throughput bytes/s, power watts) of ``channels`` channels
        carrying ``streams`` streams that jointly demand ``demand``
        bytes/s (``demand > 0``)."""
        point = self._points.get((channels, streams))
        if point is None:
            testbed = self.testbed
            source = testbed.source.server
            destination = testbed.destination.server
            channels_1 = max(1, channels)
            streams_1 = max(1, streams)
            bound = min(
                tcp.aggregate_goodput(testbed.path, streams_1),
                source.disk.aggregate_capacity(channels_1),
                destination.disk.aggregate_capacity(channels_1),
                source.nic_rate,
                destination.nic_rate,
            )
            point = self._points[(channels, streams)] = (
                bound,
                self._power_kernel(source, channels_1, streams_1),
                self._power_kernel(destination, channels_1, streams_1),
            )
        bound, source_kernel, destination_kernel = point
        aggregate = min(demand, bound)
        power = 0.0
        power += source_kernel(aggregate)[0]
        power += destination_kernel(aggregate)[0]
        return aggregate, power


#: :class:`PlanPredictor` per testbed, keyed by ``id(testbed)`` (hashing
#: the frozen ``Testbed`` costs more than the lookups it would serve);
#: each entry holds its testbed, so the id cannot be reused while it lives.
_PREDICTORS: dict[int, PlanPredictor] = {}
_PREDICTORS_CAP = 64


def plan_predictor(testbed: Testbed) -> PlanPredictor:
    """The memoized :class:`PlanPredictor` of ``testbed``."""
    predictor = _PREDICTORS.get(id(testbed))
    if predictor is None:
        if len(_PREDICTORS) >= _PREDICTORS_CAP:
            _PREDICTORS.clear()
        predictor = _PREDICTORS[id(testbed)] = PlanPredictor(testbed)
    return predictor


def plan_predictor_clear() -> None:
    """Drop every memoized :class:`PlanPredictor` (needed only after a
    ``Testbed`` is mutated in place)."""
    _PREDICTORS.clear()


def predict_plan_performance(
    testbed: Testbed, plans: Sequence[ChunkPlan]
) -> tuple[float, float]:
    """First-order (throughput bytes/s, power watts) prediction for an
    arbitrary chunk plan on a testbed.

    This is the closed-form counterpart of one engine run: per-channel
    caps with pipelining stalls bound the demand; the shared link,
    per-server disk aggregates and NICs bound the supply; the Eq. 1
    power model is evaluated at the predicted operating point (PACK
    binding — one server per side carries everything). Used by
    :func:`advise` and by the service layer's deadline-feasibility and
    SLA-class plan selection, so all three reason from the same model.
    """
    predictor = plan_predictor(testbed)
    total_channels = sum(p.params.concurrency for p in plans)
    total_streams = sum(p.params.concurrency * p.params.parallelism for p in plans)
    demand = 0.0
    for plan in plans:
        if plan.params.concurrency <= 0 or plan.file_count == 0:
            continue
        cap, efficiency = predictor.channel_rate(
            plan.params, plan.total_size / plan.file_count
        )
        demand += plan.params.concurrency * cap * efficiency
    if demand <= 0:
        return 0.0, 0.0
    return predictor.operating_point(demand, total_channels, total_streams)


def advise(
    testbed: Testbed,
    dataset: Dataset,
    max_channels: int,
    *,
    policy: PartitionPolicy = PartitionPolicy(),
) -> TransferAdvice:
    """Recommend parameters and predict the transfer's cost.

    Uses the MinE parameter walk for the per-chunk recommendation (the
    paper's energy-minimal defaults), then bounds the aggregate rate by
    the shared link and per-server disk capacities and evaluates the
    testbed's power model at the predicted operating point.
    """
    if max_channels < 1:
        raise ValueError("max_channels must be >= 1")
    bdp = testbed.path.bdp
    chunks = partition_files(dataset, bdp, policy)
    if not chunks:
        return TransferAdvice(
            testbed=testbed.name,
            chunks=(),
            total_bytes=0,
            predicted_throughput=0.0,
            predicted_duration_s=0.0,
            predicted_power_w=0.0,
            predicted_energy_j=0.0,
            notes=("empty dataset",),
        )
    params = mine_walk(chunks, bdp, testbed.path.tcp_buffer, max_channels)

    advices = []
    for chunk, p in zip(chunks, params, strict=True):
        cap, bottleneck = _channel_cap(testbed, p.parallelism)
        efficiency = _pipelining_efficiency(testbed, chunk.average_file_size, p, cap)
        advices.append(
            ChunkAdvice(
                name=chunk.name,
                file_count=chunk.file_count,
                total_bytes=chunk.total_size,
                params=p,
                per_channel_rate=cap,
                bottleneck=bottleneck,
                pipelining_efficiency=efficiency,
            )
        )

    plans = [
        ChunkPlan(name=chunk.name, files=chunk.files, params=p)
        for chunk, p in zip(chunks, params, strict=True)
    ]
    aggregate, power = predict_plan_performance(testbed, plans)

    total_bytes = sum(a.total_bytes for a in advices)
    duration = total_bytes / aggregate if aggregate > 0 else 0.0

    notes = []
    if isinstance(testbed.source.server.disk, SingleDisk) and max_channels > 1:
        notes.append(
            "single-spindle storage: concurrency above 1 will reduce throughput"
        )
    if testbed.path.tcp_buffer < bdp:
        notes.append(
            f"TCP buffer ({units.to_MB(testbed.path.tcp_buffer):.0f} MB) below BDP "
            f"({units.to_MB(bdp):.0f} MB): parallelism recommended on large files"
        )
    small = [a for a in advices if a.name == "small"]
    if small and small[0].pipelining_efficiency < 0.8:
        notes.append(
            "small files dominate: expect control-channel overhead even with "
            f"pipelining {small[0].params.pipelining}"
        )

    return TransferAdvice(
        testbed=testbed.name,
        chunks=tuple(advices),
        total_bytes=total_bytes,
        predicted_throughput=aggregate,
        predicted_duration_s=duration,
        predicted_power_w=power,
        predicted_energy_j=power * duration,
        notes=tuple(notes),
    )
