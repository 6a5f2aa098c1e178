"""Deterministic network-wide max-min allocation (progressive filling).

Each flow registers its demanded rate on every bottleneck along its
path, then a single water level rises over the whole network: every
unfrozen flow's rate grows in proportion to its weight until either
the flow reaches its demand (it freezes demand-limited) or some
bottleneck saturates (every unfrozen flow crossing it freezes at its
weighted share of that hop — its *binding* bottleneck). Capacity a
throttled flow cannot use is automatically available to the flows
that can, so the procedure terminates — in at most one round per
flow — at exactly the network-wide (weighted, demand-capped) max-min
fair allocation.

Everything here is pure and deterministic: flows are processed in
sorted id order, bottlenecks in sorted name order, demand-limited
freezes in ascending ``demand/weight`` order (ties by id). Two calls
with equal inputs return bit-equal outputs — the property the
simulator's fast-vs-grid equivalence rests on.

Two ways to reach the fixed point, bit-identical:

* the progressive-filling **solver** (:func:`_solve_scalar`, the
  reference);
* the **memoized** path — :func:`allocate` keys every call on a
  canonical (flow, path, demand, weight, capacity) signature in a
  module-level LRU, so a repeated round with a frozen busy signature
  returns the previously computed :class:`AllocationResult` object
  itself.

:func:`refill` is the incremental entry point: given the previous
round's result, it re-solves only the connected components of the
flow–bottleneck interference graph touched by changed flows and
splices the untouched components' values straight from the previous
result. Max-min decomposes exactly over those components (a flow's
fixed point only depends on flows it shares a bottleneck with,
transitively), and the canonical freeze order above makes the
per-component arithmetic independent of how *other* components
interleave — so the splice is bit-identical to a from-scratch solve,
not merely close.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.units import BytesPerSecond

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topo.core import Topology

__all__ = [
    "FlowDemand",
    "AllocationResult",
    "AllocCacheInfo",
    "water_fill",
    "allocate",
    "refill",
    "alloc_cache_info",
    "alloc_cache_clear",
    "set_alloc_cache",
]

#: Backstop against float noise: progressive filling freezes at
#: least one flow per round, so ``_MAX_ROUNDS`` is never reached on
#: well-formed inputs.
_MAX_ROUNDS = 64

#: Allocation results the LRU holds. Each entry is a few dicts over
#: the flow set (~3 KB at fleet-shard flow counts) — small next to the
#: solver cost it saves. Sized so a whole contended 1k-job sharded
#: fleet day (~7k distinct busy signatures) stays resident and an
#: exact repeat day is served from cache end to end.
_CACHE_MAX = 16384


@dataclass(frozen=True)
class FlowDemand:
    """One flow's registration: its route, demanded rate and weight."""

    flow: str
    path: tuple[str, ...]
    #: demanded rate, bytes/s.
    demand: BytesPerSecond
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError(f"flow {self.flow!r} has an empty path")
        if self.demand < 0:
            raise ValueError(f"flow {self.flow!r} demand must be >= 0")
        if self.weight <= 0:
            raise ValueError(f"flow {self.flow!r} weight must be > 0")


@dataclass(frozen=True)
class AllocationResult:
    """The fixed point: per-flow rates plus diagnostic structure.

    Equality compares the allocation itself (rates, demands, binding,
    per-bottleneck loads); ``rounds`` is excluded — an incremental
    :func:`refill` reaches the same fixed point in a different number
    of water-filling rounds than a from-scratch solve.
    """

    #: flow id -> allocated rate (bytes/s), ``min(demand, fair share)``.
    rates: dict[str, BytesPerSecond]
    #: flow id -> registered demand (bytes/s, echoed for congestion
    #: checks).
    demands: dict[str, BytesPerSecond]
    #: flow id -> the bottleneck that capped it, or ``None`` when the
    #: flow got its full demand (demand-limited, not network-limited).
    binding: dict[str, Optional[str]]
    #: bottleneck -> total allocated rate through it (bytes/s).
    bottleneck_load: dict[str, BytesPerSecond]
    #: bottleneck -> flow count registered on it.
    bottleneck_flows: dict[str, int] = field(default_factory=dict)
    #: flow id -> the path it registered (kept so :func:`refill` can
    #: localize the hops a departed or re-routed flow touched).
    paths: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: flow id -> registered weight (echoed for :func:`refill` diffs).
    weights: dict[str, float] = field(default_factory=dict)
    #: bottleneck -> total *demanded* rate registered on it (bytes/s).
    #: Unlike ``bottleneck_load`` this does not saturate at capacity,
    #: so routers can rank hops by offered pressure.
    bottleneck_demand: dict[str, BytesPerSecond] = field(default_factory=dict)
    #: water-filling rounds until the fixed point (diagnostic only).
    rounds: int = field(default=0, compare=False)

    @property
    def congested_flows(self) -> list[str]:
        """Flows that did not get their full demand, sorted."""
        return sorted(
            flow for flow, hop in self.binding.items() if hop is not None
        )

    def utilization(self, topology: "Topology") -> dict[str, float]:
        """Bottleneck -> load / current capacity."""
        return {
            name: load / topology.capacity(name)
            for name, load in sorted(self.bottleneck_load.items())
        }


class AllocCacheInfo(NamedTuple):
    """Allocation-memo traffic snapshot (:func:`alloc_cache_info`)."""

    hits: int
    misses: int
    size: int
    maxsize: int


#: The module-level allocation memo. Keys are exact-value canonical
#: signatures (sorted flow tuples + sorted (hop, capacity) tuples), so
#: a hit returns a bit-identical result by construction — no bucketing,
#: no tolerance.
_CACHE: "OrderedDict[tuple, AllocationResult]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0
_cache_enabled = True


def alloc_cache_info() -> AllocCacheInfo:
    """Current allocation-memo counters and occupancy."""
    return AllocCacheInfo(
        hits=_cache_hits,
        misses=_cache_misses,
        size=len(_CACHE),
        maxsize=_CACHE_MAX,
    )


def alloc_cache_clear() -> None:
    """Drop every memoized allocation and zero the counters."""
    global _cache_hits, _cache_misses
    _CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


def set_alloc_cache(enabled: bool) -> bool:
    """Enable/disable the allocation memo; returns the previous state.

    Disabling makes every :func:`allocate` call solve from scratch —
    the uncached reference the benchmark gates compare against.
    Per-call ``cache=`` arguments override this default either way.
    """
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = bool(enabled)
    return previous


def _cache_key(
    topology: "Topology",
    flows: Sequence[FlowDemand],
    max_rounds: int,
) -> tuple:
    flow_key = tuple(
        sorted(
            (f.flow, f.path, float(f.demand), float(f.weight))
            for f in flows
        )
    )
    hops = sorted({hop for f in flows for hop in f.path})
    cap_key = tuple((hop, float(topology.capacity(hop))) for hop in hops)
    return (flow_key, cap_key, max_rounds)


def _memo_lookup(
    cache: Optional[bool],
    topology: "Topology",
    flows: Sequence[FlowDemand],
    max_rounds: int,
) -> tuple[Optional[tuple], Optional[AllocationResult]]:
    """``(memo key or None when caching is off, memoized result or None)``,
    counting the hit or miss; ``cache`` overrides the module default."""
    global _cache_hits, _cache_misses
    if not (_cache_enabled if cache is None else cache):
        return None, None
    key = _cache_key(topology, flows, max_rounds)
    hit = _CACHE.get(key)
    if hit is None:
        _cache_misses += 1
    else:
        _cache_hits += 1
        _CACHE.move_to_end(key)
    return key, hit


def _memo_store(key: Optional[tuple], result: AllocationResult) -> AllocationResult:
    """Memoize ``result`` under a non-None ``key`` (LRU-evicting beyond
    ``_CACHE_MAX``) and return it."""
    if key is not None:
        _CACHE[key] = result
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return result


def _validate_unique(flows: Sequence[FlowDemand]) -> None:
    seen: set[str] = set()
    for flow in flows:
        if flow.flow in seen:
            raise ValueError(f"duplicate flow id {flow.flow!r}")
        seen.add(flow.flow)


def water_fill(
    capacity: BytesPerSecond,
    demands: Mapping[str, BytesPerSecond],
    weights: Optional[Mapping[str, float]] = None,
) -> dict[str, BytesPerSecond]:
    """Weighted max-min division of one capacity (bytes/s) among
    demands (bytes/s).

    Progressive filling: flows whose demand is below their weighted
    fair share are frozen at their demand, their unused share is
    returned to the pool, and the remaining flows split it by weight —
    repeated (via one pass in ascending ``demand/weight`` order) until
    every flow is frozen at either its demand or its final share.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if not demands:
        return {}
    if weights is None:
        weights = {flow: 1.0 for flow in demands}
    order = sorted(
        demands, key=lambda flow: (demands[flow] / weights[flow], flow)
    )
    remaining = float(capacity)
    remaining_weight = sum(weights[flow] for flow in order)
    shares: dict[str, float] = {}
    for flow in order:
        fair = remaining * weights[flow] / remaining_weight
        give = demands[flow] if demands[flow] < fair else fair
        shares[flow] = give
        remaining -= give
        remaining_weight -= weights[flow]
        if remaining < 0.0:
            remaining = 0.0
    return {flow: shares[flow] for flow in sorted(shares)}


def _solve_scalar(
    demands: dict[str, float],
    weights: dict[str, float],
    paths: dict[str, tuple[str, ...]],
    by_bottleneck: dict[str, list[str]],
    capacities: dict[str, float],
    max_rounds: int,
) -> tuple[dict[str, float], dict[str, Optional[str]], int]:
    """The reference progressive-filling loop (see :func:`allocate`)."""
    hops_sorted = sorted(by_bottleneck)
    rates: dict[str, float] = {}
    binding: dict[str, Optional[str]] = {}
    active = set(demands)
    frozen_load = {hop: 0.0 for hop in hops_sorted}
    rounds = 0
    while active and rounds < max_rounds:
        rounds += 1
        # Lowest level at which a bottleneck saturates.
        cap_level = None
        for hop in hops_sorted:
            weight = sum(
                weights[flow]
                for flow in by_bottleneck[hop]
                if flow in active
            )
            if weight <= 0.0:
                continue
            level = (capacities[hop] - frozen_load[hop]) / weight
            if level < 0.0:
                level = 0.0
            if cap_level is None or level < cap_level:
                cap_level = level
        if cap_level is None:  # pragma: no cover - every flow has a hop
            break
        # Flows whose demand sits at or below the level freeze first:
        # removing one returns unused share to its hops, so every
        # hop's saturation level can only rise — freezing them all at
        # once is exact, not greedy. The freeze (and hence the
        # ``frozen_load`` accumulation) order is ascending
        # ``demand/weight`` with id tie-breaks: the order the rising
        # level reaches them, which is independent of how the level's
        # discrete rounds partition the batch — the canonical-order
        # property :func:`refill`'s component splicing rests on.
        frozen = sorted(
            (
                flow
                for flow in active
                if demands[flow] / weights[flow] <= cap_level
            ),
            key=lambda flow: (demands[flow] / weights[flow], flow),
        )
        if frozen:
            for flow in frozen:
                rates[flow] = demands[flow]
                binding[flow] = None
        else:
            # A bottleneck saturates below every remaining demand:
            # its unfrozen flows freeze at their weighted share of it.
            saturated = {
                hop
                for hop in hops_sorted
                if any(flow in active for flow in by_bottleneck[hop])
                and (
                    capacities[hop] - frozen_load[hop]
                ) / sum(
                    weights[flow]
                    for flow in by_bottleneck[hop]
                    if flow in active
                ) <= cap_level
            }
            for flow in sorted(active):
                for hop in paths[flow]:
                    if hop in saturated:
                        rates[flow] = weights[flow] * cap_level
                        binding[flow] = hop
                        frozen.append(flow)
                        break
        for flow in frozen:
            active.discard(flow)
            for hop in paths[flow]:
                frozen_load[hop] += rates[flow]
    for flow in sorted(active):  # pragma: no cover - max_rounds backstop
        rates[flow] = demands[flow]
        binding[flow] = None
    return rates, binding, rounds


def _finalize(
    rates: dict[str, float],
    demands: dict[str, float],
    weights: dict[str, float],
    binding: dict[str, Optional[str]],
    paths: dict[str, tuple[str, ...]],
    by_bottleneck: dict[str, list[str]],
    rounds: int,
) -> AllocationResult:
    load = {
        hop: sum(rates[flow] for flow in members)
        for hop, members in sorted(by_bottleneck.items())
    }
    demand_load = {
        hop: sum(demands[flow] for flow in members)
        for hop, members in sorted(by_bottleneck.items())
    }
    count = {
        hop: len(members) for hop, members in sorted(by_bottleneck.items())
    }
    return AllocationResult(
        rates=rates,
        demands=demands,
        binding=binding,
        bottleneck_load=load,
        bottleneck_flows=count,
        paths=paths,
        weights=weights,
        bottleneck_demand=demand_load,
        rounds=rounds,
    )


def _allocate_fresh(
    topology: "Topology",
    flows: Sequence[FlowDemand],
    max_rounds: int,
) -> AllocationResult:
    ordered = sorted(flows, key=lambda f: f.flow)
    demands = {f.flow: float(f.demand) for f in ordered}
    weights = {f.flow: float(f.weight) for f in ordered}
    paths = {f.flow: f.path for f in ordered}
    by_bottleneck: dict[str, list[str]] = {}
    for f in ordered:
        for hop in f.path:
            by_bottleneck.setdefault(hop, []).append(f.flow)
    capacities = {
        hop: topology.capacity(hop) for hop in sorted(by_bottleneck)
    }
    rates, binding, rounds = _solve_scalar(
        demands, weights, paths, by_bottleneck, capacities, max_rounds
    )
    return _finalize(
        rates, demands, weights, binding, paths, by_bottleneck, rounds
    )


def allocate(
    topology: "Topology",
    flows: Sequence[FlowDemand],
    *,
    max_rounds: int = _MAX_ROUNDS,
    cache: Optional[bool] = None,
) -> AllocationResult:
    """Progressive filling to the exact network max-min allocation.

    A normalized water level rises round by round. Each round finds
    the next freeze event — the lowest level at which some bottleneck
    saturates (``(capacity - frozen load) / unfrozen weight``) — and
    freezes either every unfrozen flow whose weighted demand sits at
    or below that level (demand-limited, no binding hop) or, when
    none does, every unfrozen flow crossing a saturating hop (frozen
    at its weighted share there; the hop is its *binding* bottleneck,
    the first saturating one along its path). Every round freezes at
    least one flow, so the loop terminates in at most one round per
    flow — ``max_rounds`` is a float-noise backstop, not a
    convergence knob.

    ``cache`` overrides the module default (:func:`set_alloc_cache`):
    a hit on the canonical exact-value signature returns the memoized
    :class:`AllocationResult` — bit-identical by construction.
    """
    if not flows:
        return AllocationResult(
            rates={}, demands={}, binding={}, bottleneck_load={}, rounds=0
        )
    _validate_unique(flows)
    key, hit = _memo_lookup(cache, topology, flows, max_rounds)
    if hit is not None:
        return hit
    return _memo_store(key, _allocate_fresh(topology, flows, max_rounds))


def refill(
    topology: "Topology",
    flows: Sequence[FlowDemand],
    previous: Optional[AllocationResult],
    *,
    changed: Optional[Iterable[str]] = None,
    max_rounds: int = _MAX_ROUNDS,
    cache: Optional[bool] = None,
) -> AllocationResult:
    """Incrementally re-solve after a small change in the flow set.

    Diffs ``flows`` against ``previous`` (joined, departed, or
    demand/path/weight-changed flows; ``changed`` unions extra flow
    ids to force), expands the changes to the connected components of
    the flow–bottleneck interference graph they touch, re-solves only
    those components, and splices every untouched component's rates,
    bindings and per-bottleneck loads straight out of ``previous``.

    Bit-identity contract: the spliced result equals a from-scratch
    :func:`allocate` on the same inputs (``rounds`` excepted — it
    reports the sub-solve only). The caller must guarantee the
    topology's capacities are unchanged since ``previous`` was
    computed — re-solve from scratch after any brownout (the
    simulators key this on ``Topology.version``).
    """
    if previous is None or not previous.demands:
        return allocate(
            topology, flows, max_rounds=max_rounds, cache=cache
        )
    if not flows:
        return AllocationResult(
            rates={}, demands={}, binding={}, bottleneck_load={}, rounds=0
        )
    _validate_unique(flows)
    key, hit = _memo_lookup(cache, topology, flows, max_rounds)
    if hit is not None:
        return hit
    changed_names = set(changed) if changed is not None else set()
    for f in flows:
        prior = previous.demands.get(f.flow)
        if (
            prior is None
            or float(f.demand) != prior
            or f.path != previous.paths.get(f.flow)
            or float(f.weight) != previous.weights.get(f.flow)
        ):
            changed_names.add(f.flow)
    names = {f.flow for f in flows}
    removed = set(previous.demands) - names
    if not changed_names and not removed:
        return _memo_store(key, previous)
    by_bottleneck: dict[str, list[str]] = {}
    flow_by_name: dict[str, FlowDemand] = {}
    for f in sorted(flows, key=lambda f: f.flow):
        flow_by_name[f.flow] = f
        for hop in f.path:
            by_bottleneck.setdefault(hop, []).append(f.flow)
    # Seed hops: everywhere a changed flow now registers, everywhere
    # it used to register, and everywhere a departed flow registered —
    # load moved on or off all of them.
    seed_hops: set[str] = set()
    for name in changed_names:
        if name in flow_by_name:
            seed_hops.update(flow_by_name[name].path)
        prior_path = previous.paths.get(name)
        if prior_path is not None:
            seed_hops.update(prior_path)
    for name in removed:
        prior_path = previous.paths.get(name)
        if prior_path is not None:
            seed_hops.update(prior_path)
    # Expand to the full connected components: any flow crossing an
    # affected hop is affected, and drags its own hops in.
    affected_hops: set[str] = set()
    affected_flows: set[str] = {
        name for name in changed_names if name in flow_by_name
    }
    frontier = list(seed_hops)
    while frontier:
        hop = frontier.pop()
        if hop in affected_hops:
            continue
        affected_hops.add(hop)
        for name in by_bottleneck.get(hop, ()):
            if name not in affected_flows:
                affected_flows.add(name)
                frontier.extend(flow_by_name[name].path)
    if len(affected_flows) == len(flow_by_name):
        # Everything is reachable from the change: a plain solve (the
        # miss was already counted above; store under the full key).
        return _memo_store(key, _allocate_fresh(topology, flows, max_rounds))
    subset = [flow_by_name[name] for name in sorted(affected_flows)]
    sub = (
        allocate(topology, subset, max_rounds=max_rounds, cache=cache)
        if subset
        else None
    )
    rates: dict[str, float] = {}
    demands: dict[str, float] = {}
    binding: dict[str, Optional[str]] = {}
    paths: dict[str, tuple[str, ...]] = {}
    weights: dict[str, float] = {}
    for name in sorted(flow_by_name):
        if sub is not None and name in affected_flows:
            rates[name] = sub.rates[name]
            demands[name] = sub.demands[name]
            binding[name] = sub.binding[name]
            paths[name] = sub.paths[name]
            weights[name] = sub.weights[name]
        else:
            rates[name] = previous.rates[name]
            demands[name] = previous.demands[name]
            binding[name] = previous.binding[name]
            paths[name] = previous.paths[name]
            weights[name] = previous.weights[name]
    load: dict[str, float] = {}
    demand_load: dict[str, float] = {}
    count: dict[str, int] = {}
    for hop in sorted(by_bottleneck):
        if hop in affected_hops and sub is not None:
            load[hop] = sub.bottleneck_load[hop]
            demand_load[hop] = sub.bottleneck_demand[hop]
            count[hop] = sub.bottleneck_flows[hop]
        else:
            load[hop] = previous.bottleneck_load[hop]
            demand_load[hop] = previous.bottleneck_demand[hop]
            count[hop] = previous.bottleneck_flows[hop]
    return _memo_store(key, AllocationResult(
        rates=rates,
        demands=demands,
        binding=binding,
        bottleneck_load=load,
        bottleneck_flows=count,
        paths=paths,
        weights=weights,
        bottleneck_demand=demand_load,
        rounds=sub.rounds if sub is not None else 0,
    ))
