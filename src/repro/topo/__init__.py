"""Multi-bottleneck network topologies with contention-aware placement.

The paper's testbeds are point-to-point links; this package grows them
into small networks. A :class:`Topology` is a set of named
:class:`Bottleneck` capacities plus the :class:`Path`\\ s that cross
them; :func:`repro.topo.alloc.allocate` divides each bottleneck's
capacity among the flows registered on it (weighted max-min, iterated
to a fixed point — the psim mechanism); and
:class:`repro.topo.placement.Placer` chooses which path each admitted
job takes (least-congested, ECMP-hash, random-of-k).

:class:`~repro.netsim.multi.MultiTransferSimulator` consumes all three:
with a topology attached, coupled engines draw their per-round rate
constraints from the topology-wide allocation instead of a private
link. See DESIGN.md §5h.
"""

from repro.topo.alloc import (
    AllocationResult,
    AllocCacheInfo,
    FlowDemand,
    alloc_cache_clear,
    alloc_cache_info,
    allocate,
    carry,
    refill,
    set_alloc_cache,
)
from repro.topo.core import (
    Bottleneck,
    Path,
    Topology,
    build_topology,
    fat_tree,
    from_edges,
    leaf_spine,
    single_link,
)
from repro.topo.placement import PLACEMENT_POLICIES, Placer

__all__ = [
    "AllocCacheInfo",
    "AllocationResult",
    "Bottleneck",
    "FlowDemand",
    "PLACEMENT_POLICIES",
    "Path",
    "Placer",
    "Topology",
    "alloc_cache_clear",
    "alloc_cache_info",
    "allocate",
    "build_topology",
    "carry",
    "fat_tree",
    "from_edges",
    "leaf_spine",
    "refill",
    "set_alloc_cache",
    "single_link",
]
