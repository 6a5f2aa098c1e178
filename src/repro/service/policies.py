"""SLA-class → transfer-plan mapping.

The service promises each tenant a behaviour, not an algorithm; this
module turns the promise into a concrete chunk plan using the paper's
planners:

* ``ENERGY``   → MinE's small→large parameter walk (Algorithm 1): the
  minimum-energy plan, deferrable by the scheduler.
* ``BALANCED`` → HTEE-tuned parameters (Algorithm 2's ``log(size) *
  log(count)`` channel weighting), with the concurrency chosen by a
  closed-form argmax of predicted throughput-per-watt over the probe
  ladder — the static counterpart of HTEE's online search.
* ``SLA(x)``   → SLAEE-style channel assignment (Algorithm 3's small-
  first, Large-pinned allocation) at the concurrency proportional to
  the target fraction of the path's reference maximum.

Every plan carries first-order duration/energy estimates from
:func:`repro.core.advisor.predict_plan_performance`, which the
scheduler uses for deadline feasibility — so planning, deferral and
admission all reason from one model.

Planning is memoized: the MinE/HTEE/SLAEE math is a pure function of
the testbed, the dataset's file sizes, the SLA class and the planner
knobs, and real workloads repeat dataset shapes constantly (tenants
re-send the same backup mixes), so :func:`plan_for` consults a small
LRU keyed by ``(testbed identity, file-size signature, SLA kind/level,
max_channels, partition policy)``. Hits return a fresh
:class:`JobPlan` wrapping the cached chunk plans — byte-identical
numerics, none of the planning cost. ``use_cache=False`` bypasses it;
:func:`plan_cache_info` / :func:`plan_cache_clear` expose and reset it
(clear after mutating a ``Testbed`` in place — identity keying cannot
see in-place edits).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from repro.core.advisor import (
    plan_predictor,
    plan_predictor_clear,
    predict_plan_performance,
)
from repro.core.allocation import chunk_params, htee_weights
from repro.core.chunks import PartitionPolicy, partition_files
from repro.core.htee import probe_ladder, scaled_allocation
from repro.core.mine import MinEAlgorithm
from repro.core.scheduler import make_plans
from repro.core.slaee import sla_allocation
from repro.netsim.engine import ChunkPlan
from repro.service.requests import TransferRequest
from repro.testbeds.specs import Testbed
from repro.units import Joules, Seconds

__all__ = [
    "JobPlan",
    "PlanCacheEntry",
    "export_plan_cache",
    "plan_for",
    "plan_cache_info",
    "plan_cache_clear",
    "seed_plan_cache",
]


@dataclass(frozen=True)
class JobPlan:
    """A request turned into engine-ready chunk plans plus estimates
    (duration in seconds, energy in joules)."""

    request: TransferRequest
    algorithm: str
    plans: tuple[ChunkPlan, ...]
    est_duration_s: Seconds
    est_energy_j: Joules

    @property
    def total_bytes(self) -> int:
        return sum(p.total_size for p in self.plans)

    @property
    def planned_channels(self) -> int:
        return sum(p.params.concurrency for p in self.plans)


# ----------------------------------------------------------------------
# plan memoization
# ----------------------------------------------------------------------

#: Cache key: ``(id(testbed), file sizes, sla kind, sla level,
#: max_channels, partition_policy)``. Cache value: ``(algorithm, plans,
#: est_duration_s, est_energy_j, testbed)`` — the testbed reference is
#: stored purely to pin the object alive so its ``id`` cannot be
#: recycled while the entry lives.
_CacheKey = tuple[int, tuple[int, ...], str, Optional[float], int, PartitionPolicy]
_CacheValue = tuple[str, tuple[ChunkPlan, ...], Seconds, Joules, Testbed]


class _PlanCache:
    """A small LRU over planning results with hit/miss accounting."""

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[_CacheKey, _CacheValue] = OrderedDict()

    def get(self, key: _CacheKey) -> Optional[_CacheValue]:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: _CacheKey, value: _CacheValue) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_PLAN_CACHE = _PlanCache()


def plan_cache_info() -> dict[str, int]:
    """Current plan-cache statistics: ``hits``, ``misses``, ``size``,
    ``maxsize``."""
    return {
        "hits": _PLAN_CACHE.hits,
        "misses": _PLAN_CACHE.misses,
        "size": len(_PLAN_CACHE),
        "maxsize": _PLAN_CACHE.maxsize,
    }


def plan_cache_clear() -> None:
    """Drop every memoized plan and per-testbed
    :class:`~repro.core.advisor.PlanPredictor`, and reset the hit/miss
    counters.

    Call this after mutating a :class:`Testbed` in place — cache keys
    carry testbed *identity*, which cannot observe in-place edits.
    """
    _PLAN_CACHE.clear()
    plan_predictor_clear()


#: One portable (picklable, identity-free) warm-start entry: the cache
#: key minus the testbed id — ``(file sizes, sla kind, sla level,
#: max_channels, partition_policy)`` — plus the cached planning result
#: ``(algorithm, plans, est_duration_s, est_energy_j)``.
PlanCacheEntry = tuple[
    tuple[int, ...],
    str,
    Optional[float],
    int,
    PartitionPolicy,
    str,
    tuple[ChunkPlan, ...],
    Seconds,
    Joules,
]


def export_plan_cache(testbed: Testbed) -> list[PlanCacheEntry]:
    """Snapshot ``testbed``'s memoized plans as portable entries.

    Entries drop the identity half of the cache key (``id(testbed)``
    does not survive pickling), so they can cross process boundaries
    and be re-pinned to *any* equivalent testbed object with
    :func:`seed_plan_cache` — the psim-``GContext`` warm-start idiom.
    Returned in LRU order (oldest first), so re-seeding preserves
    eviction order.
    """
    tb_id = id(testbed)
    return [
        (key[1], key[2], key[3], key[4], key[5], value[0], value[1], value[2], value[3])
        for key, value in _PLAN_CACHE._data.items()
        if key[0] == tb_id
    ]


def seed_plan_cache(testbed: Testbed, entries: Iterable[PlanCacheEntry]) -> int:
    """Warm the plan LRU for ``testbed`` from exported entries.

    Seeds both the memoized chunk plans and their
    :func:`~repro.core.advisor.predict_plan_performance` estimates, so
    a service run starting from a prior similar run's context plans
    repeated dataset shapes without paying the MinE/HTEE/SLAEE math
    even once. Seeding counts as neither hit nor miss. Returns the
    number of entries installed. The caller vouches that ``testbed``
    is equivalent to the exporting one (same path/server/coefficient
    numbers) — entries carry no identity to check against.
    """
    count = 0
    for sizes, kind, level, max_channels, policy, algorithm, plans, duration, energy in entries:
        key: _CacheKey = (id(testbed), tuple(sizes), kind, level, max_channels, policy)
        _PLAN_CACHE.put(key, (algorithm, tuple(plans), duration, energy, testbed))
        count += 1
    return count


def _cache_key(
    testbed: Testbed,
    request: TransferRequest,
    max_channels: int,
    partition_policy: PartitionPolicy,
) -> _CacheKey:
    return (
        id(testbed),
        tuple(f.size for f in request.dataset.files),
        request.sla.kind,
        request.sla.level,
        max_channels,
        partition_policy,
    )


def _estimate(
    plans: list[ChunkPlan], point: tuple[float, float]
) -> tuple[Seconds, Joules]:
    """(duration seconds, energy joules) of ``plans`` at their predicted
    ``(throughput bytes/s, power watts)`` operating point."""
    throughput, power = point
    total = sum(p.total_size for p in plans)
    if throughput <= 0 or total <= 0:
        return 0.0, 0.0
    duration = total / throughput
    return duration, power * duration


def _balanced_plans(
    testbed: Testbed, request: TransferRequest, max_channels: int,
    policy: PartitionPolicy,
) -> tuple[list[ChunkPlan], tuple[float, float]]:
    """HTEE weighting, concurrency by closed-form efficiency argmax.

    A chunk's pipelining, parallelism, channel cap and pipelining
    efficiency do not depend on its channel count, so they are computed
    once; each ladder rung only re-splits the channels and scores the
    totals, exactly as :func:`predict_plan_performance` would score that
    rung's plans. Plans are built for the winning rung alone, and are
    returned with its ``(throughput, power)`` — the prediction of those
    plans, so the estimate needs no second one.
    """
    bdp = testbed.path.bdp
    buffer = testbed.path.tcp_buffer
    chunks = partition_files(request.dataset, bdp, policy)
    weights = htee_weights(chunks)
    predictor = plan_predictor(testbed)
    params = [chunk_params(chunk, bdp, buffer, 0) for chunk in chunks]
    rates = [
        predictor.channel_rate(p, chunk.total_size / chunk.file_count)
        for chunk, p in zip(chunks, params, strict=True)
    ]
    best_allocation: Optional[list[int]] = None
    best_point = (0.0, 0.0)
    best_score = -math.inf
    for cc in probe_ladder(max_channels):
        allocation = scaled_allocation(weights, cc)
        streams = 0
        demand = 0.0
        for alloc, p, (cap, efficiency) in zip(allocation, params, rates, strict=True):
            streams += alloc * p.parallelism
            if alloc > 0:
                demand += alloc * cap * efficiency
        score = 0.0
        point = (0.0, 0.0)  # what the predictor gives a demandless plan
        if demand > 0:
            point = predictor.operating_point(demand, cc, streams)
            throughput, power = point
            if power > 0:
                score = throughput / power
        if score > best_score + 1e-12:  # ties favor the lower concurrency
            best_score = score
            best_allocation = allocation
            best_point = point
    assert best_allocation is not None
    plans = make_plans(chunks, [
        chunk_params(chunk, bdp, buffer, alloc)
        for chunk, alloc in zip(chunks, best_allocation, strict=True)
    ])
    return plans, best_point


def _sla_plans(
    testbed: Testbed, request: TransferRequest, policy: PartitionPolicy,
) -> list[ChunkPlan]:
    """SLAEE-style static plan at the target-proportional concurrency."""
    assert request.sla.level is not None
    bdp = testbed.path.bdp
    chunks = partition_files(request.dataset, bdp, policy)
    cc_target = max(
        1, math.ceil(request.sla.level * testbed.sla_reference_concurrency)
    )
    allocation = sla_allocation(chunks, cc_target)
    params = [
        chunk_params(chunk, bdp, testbed.path.tcp_buffer, alloc)
        for chunk, alloc in zip(chunks, allocation, strict=True)
    ]
    return make_plans(chunks, params)


def plan_for(
    testbed: Testbed,
    request: TransferRequest,
    max_channels: int = 4,
    *,
    partition_policy: PartitionPolicy = PartitionPolicy(),
    use_cache: bool = True,
) -> JobPlan:
    """Map one request's SLA class to an engine-ready plan + estimates.

    ``max_channels`` bounds ENERGY/BALANCED jobs; SLA-class jobs size
    themselves from the testbed's reference concurrency instead (the
    contract is relative to the path's maximum, not to the service's
    per-job default budget).

    With ``use_cache=True`` (default) results are memoized on the
    planning inputs — repeated dataset shapes (identical file-size
    sequences) skip the MinE/HTEE/SLAEE math entirely. The returned
    :class:`JobPlan` always wraps *this* request; on a hit its chunk
    plans are shared with earlier jobs of the same shape (they are
    immutable inputs: each job's engine copies them into its own
    mutable state). Note the cached plans carry the file *names* of
    the first dataset of that shape — sizes, and therefore all
    simulated numerics, are identical by construction.
    """
    if max_channels < 1:
        raise ValueError("max_channels must be >= 1")
    key: Optional[_CacheKey] = None
    if use_cache:
        key = _cache_key(testbed, request, max_channels, partition_policy)
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            algorithm, plans_t, duration, energy, _pin = cached
            return JobPlan(
                request=request,
                algorithm=algorithm,
                plans=plans_t,
                est_duration_s=duration,
                est_energy_j=energy,
            )
    kind = request.sla.kind
    plans: list[ChunkPlan]
    if kind == "energy":
        algorithm = "MinE"
        plans = MinEAlgorithm(policy=partition_policy).plan(
            testbed, request.dataset, max_channels
        )
        point = predict_plan_performance(testbed, plans)
    elif kind == "balanced":
        algorithm = "HTEE-static"
        plans, point = _balanced_plans(testbed, request, max_channels, partition_policy)
    else:
        algorithm = "SLAEE-static"
        plans = _sla_plans(testbed, request, partition_policy)
        point = predict_plan_performance(testbed, plans)
    duration, energy = _estimate(plans, point)
    plans_tuple = tuple(plans)
    if key is not None:
        _PLAN_CACHE.put(key, (algorithm, plans_tuple, duration, energy, testbed))
    return JobPlan(
        request=request,
        algorithm=algorithm,
        plans=plans_tuple,
        est_duration_s=duration,
        est_energy_j=energy,
    )
