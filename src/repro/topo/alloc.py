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

Before it splices or looks anything up, :func:`refill` tries the
cheapest exact answer, :func:`carry`: the previous allocation with the
new demands. It applies when the flow ids, paths and weights are
unchanged and every flow whose demand moved was *bound* with
``demand / weight > levels[flow]``, where ``levels[flow]`` (recorded
by the solver) is the highest water level the solve reached while that
flow was unfrozen. Why that is exact: the solver reads an unfrozen
flow's demand in one place only, the demand-freeze test
``demand / weight <= level`` of each round; once the flow freezes at a
bottleneck its rate is ``weight * level`` and its demand is never read
again. Every round up to the flow's freeze compared its demand against
a level no higher than the recorded one, so a demand still above that
level fails every one of those tests exactly as the old demand did.
Every round therefore freezes the same flows in the same order at the
same levels, and every rate, binding and load comes out bit-equal;
only ``demands`` and ``bottleneck_demand`` (re-summed on the moved
flows' hops, in sorted-member order) change. A demand-limited flow's
rate *is* its demand, so any move of one re-solves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.units import BytesPerSecond

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topo.core import Topology

__all__ = [
    "FlowDemand",
    "AllocationResult",
    "AllocCacheInfo",
    "allocate",
    "carry",
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
    per-bottleneck loads); ``rounds`` and ``levels`` are excluded —
    they describe the solve behind the result, and an incremental
    :func:`refill` reaches the same fixed point by a different one.
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
    #: bound flow id -> the highest water level the solve reached while
    #: the flow was unfrozen (what :func:`carry` tests a new demand
    #: against; demand-limited flows have no entry).
    levels: dict[str, float] = field(default_factory=dict, compare=False)

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


def _solve_scalar(
    demands: dict[str, float],
    weights: dict[str, float],
    paths: dict[str, tuple[str, ...]],
    by_bottleneck: dict[str, list[str]],
    capacities: dict[str, float],
    max_rounds: int,
) -> tuple[dict[str, float], dict[str, Optional[str]], dict[str, float], int]:
    """The reference progressive-filling loop (see :func:`allocate`);
    returns the rates, the bindings, each bound flow's level (see
    :attr:`AllocationResult.levels`) and the round count."""
    hops_sorted = sorted(by_bottleneck)
    rates: dict[str, float] = {}
    binding: dict[str, Optional[str]] = {}
    levels: dict[str, float] = {}
    active = set(demands)
    frozen_load = {hop: 0.0 for hop in hops_sorted}
    rounds = 0
    # the highest level so far: every active flow has seen all of them
    peak = 0.0
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
        if cap_level > peak:
            peak = cap_level
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
                        levels[flow] = peak
                        frozen.append(flow)
                        break
        for flow in frozen:
            active.discard(flow)
            for hop in paths[flow]:
                frozen_load[hop] += rates[flow]
    for flow in sorted(active):  # pragma: no cover - max_rounds backstop
        rates[flow] = demands[flow]
        binding[flow] = None
    return rates, binding, levels, rounds


def _finalize(
    rates: dict[str, float],
    demands: dict[str, float],
    weights: dict[str, float],
    binding: dict[str, Optional[str]],
    levels: dict[str, float],
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
        levels=levels,
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
    rates, binding, levels, rounds = _solve_scalar(
        demands, weights, paths, by_bottleneck, capacities, max_rounds
    )
    return _finalize(
        rates, demands, weights, binding, levels, paths, by_bottleneck, rounds
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


def carry(
    previous: AllocationResult,
    flows: Sequence[tuple[str, tuple[str, ...], float, float]],
) -> Optional[AllocationResult]:
    """``previous`` with the new demands of ``flows`` (unique
    ``(flow, path, demand, weight)`` float tuples) when the module
    docstring's carry rule makes that exact — ``previous`` itself when
    no demand moved — else ``None``. Assumes unchanged capacities."""
    demands = previous.demands
    if len(flows) != len(demands):
        return None
    paths = previous.paths
    weights = previous.weights
    levels = previous.levels
    moved: list[tuple[str, float]] = []
    for name, path, demand, weight in flows:
        prior = demands.get(name)
        if prior is None or paths[name] != path or weights[name] != weight:
            return None
        if demand != prior:
            level = levels.get(name)
            if level is None or not demand / weight > level:
                return None
            moved.append((name, demand))
    if not moved:
        return previous
    demands = dict(demands)
    touched: set[str] = set()
    for name, demand in moved:
        demands[name] = demand
        touched.update(paths[name])
    demand_load = dict(previous.bottleneck_demand)
    for hop in touched:
        # ``demands`` iterates in sorted flow order, as the members do
        demand_load[hop] = sum(
            demand for name, demand in demands.items() if hop in paths[name]
        )
    return replace(
        previous, demands=demands, bottleneck_demand=demand_load, rounds=0
    )


def refill(
    topology: "Topology",
    flows: Sequence[FlowDemand],
    previous: Optional[AllocationResult],
    *,
    max_rounds: int = _MAX_ROUNDS,
    cache: Optional[bool] = None,
) -> AllocationResult:
    """Incrementally re-solve after a small change in the flow set.

    Returns :func:`carry`'s result when it applies (no memo lookup).
    Otherwise diffs ``flows`` against ``previous`` (joined, departed,
    or demand/path/weight-changed flows), expands the changes to the
    connected components of the flow–bottleneck interference graph
    they touch, re-solves only those components, and splices every
    untouched component's rates, bindings, per-bottleneck loads and
    levels straight out of ``previous``.

    Bit-identity contract: the result equals a from-scratch
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
    carried = carry(
        previous,
        [(f.flow, f.path, float(f.demand), float(f.weight)) for f in flows],
    )
    if carried is not None:
        return carried
    key, hit = _memo_lookup(cache, topology, flows, max_rounds)
    if hit is not None:
        return hit
    changed_names: set[str] = set()
    for f in flows:
        prior = previous.demands.get(f.flow)
        if (
            prior is None
            or float(f.demand) != prior
            or f.path != previous.paths.get(f.flow)
            or float(f.weight) != previous.weights.get(f.flow)
        ):
            changed_names.add(f.flow)
    removed = set(previous.demands).difference(f.flow for f in flows)
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
    for name in changed_names | removed:
        if name in flow_by_name:
            seed_hops.update(flow_by_name[name].path)
        seed_hops.update(previous.paths.get(name, ()))
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
    levels: dict[str, float] = {}
    for name in sorted(flow_by_name):
        source = sub if sub is not None and name in affected_flows else previous
        rates[name] = source.rates[name]
        demands[name] = source.demands[name]
        binding[name] = source.binding[name]
        paths[name] = source.paths[name]
        weights[name] = source.weights[name]
        if name in source.levels:
            levels[name] = source.levels[name]
    load: dict[str, float] = {}
    demand_load: dict[str, float] = {}
    count: dict[str, int] = {}
    for hop in sorted(by_bottleneck):
        source = sub if sub is not None and hop in affected_hops else previous
        load[hop] = source.bottleneck_load[hop]
        demand_load[hop] = source.bottleneck_demand[hop]
        count[hop] = source.bottleneck_flows[hop]
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
        levels=levels,
    ))
