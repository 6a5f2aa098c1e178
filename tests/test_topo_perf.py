"""PR 10 performance-layer contracts.

The allocation LRU and incremental re-fill must both be
*bit-identical* to the from-scratch progressive-filling solve; the
netsim round-reuse (signature skip + ``refill``)
must leave every binding decision — and therefore every timestamp of
a service day — exactly as a from-scratch ``allocate`` per round
would; the fleet's ``topology-aware`` router must carve the fabric
conservatively, route deterministically and survive the process pool;
and the new cache telemetry must flow through counters, the
``allocation_cached`` event and the renderers.
"""

import json
import math
import random

import pytest

from repro.obs.observer import Observer, render_events, render_metrics
from repro.service import RunNow, ServiceSimulator, bursty_workload, \
    peak_offpeak_tariff, poisson_workload
from repro.service.fleet import (
    FleetSimulator,
    ShardSpec,
    route_requests,
    topology_pair_shards,
)
from repro import units
from repro.datasets.files import Dataset
from repro.service.policies import plan_cache_clear
from repro.service.requests import BALANCED, TransferRequest
from repro.testbeds.specs import testbed_by_name as _testbed_by_name
from repro.topo import (
    FlowDemand,
    alloc_cache_clear,
    alloc_cache_info,
    allocate,
    build_topology,
    carry,
    from_edges,
    refill,
    set_alloc_cache,
)

XSEDE = _testbed_by_name("xsede")
DAY = 600.0


def make_request(name="job", tenant="t", submit=0.0, n_files=8, file_mb=5):
    ds = Dataset.from_sizes([file_mb * units.MB] * n_files, name=name)
    return TransferRequest(name, tenant, ds, sla=BALANCED,
                           submit_time=submit)

TOPOLOGY_SPECS = (
    "single-link",
    "leaf-spine:s=2,l=4,spine=0.4",
    "fat-tree:k=4,core=0.3",
)
PLACEMENTS = ("least-congested", "ecmp-hash")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Every test starts from an empty allocation LRU (enabled) and an
    empty plan cache, and leaves the module switches as it found them."""
    prev = set_alloc_cache(True)
    alloc_cache_clear()
    plan_cache_clear()
    yield
    set_alloc_cache(prev)
    alloc_cache_clear()


def flows_for(topology, n, *, demand_scale=1.0):
    """``n`` deterministic unit-weight flows over ``topology``'s paths,
    demands spread around the hop capacities so some flows saturate and
    some stay demand-limited."""
    paths = sorted(topology.paths)
    cap = min(topology.capacity(hop) for hop in topology.bottlenecks)
    return [
        FlowDemand(
            f"f{i:03d}",
            topology.paths[paths[i % len(paths)]].bottlenecks,
            demand_scale * cap * (0.1 + ((i * 7) % 13) / 6.0),
        )
        for i in range(n)
    ]


def run_day(requests, *, fast=True, observer=None, **kwargs):
    plan_cache_clear()
    sim = ServiceSimulator(
        XSEDE,
        policy=RunNow(),
        tariff=peak_offpeak_tariff(period_s=DAY),
        fast=fast,
        observer=observer,
        **kwargs,
    )
    return sim.run(requests)


def report_json(report) -> str:
    data = report.to_dict()
    data.pop("topology", None)
    data.pop("placement", None)
    return json.dumps(data, sort_keys=True)


# ----------------------------------------------------------------------
# allocator equivalence: solver / LRU / refill
# ----------------------------------------------------------------------


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("n", [8, 48])
    def test_cached_hit_is_bit_identical(self, spec, n):
        topology = build_topology(spec, bandwidth=1e9)
        flows = flows_for(topology, n)
        baseline = allocate(topology, flows, cache=False)
        alloc_cache_clear()
        first = allocate(topology, flows)
        info = alloc_cache_info()
        assert (info.hits, info.misses) == (0, 1)
        second = allocate(topology, flows)
        info = alloc_cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert first == baseline
        assert second == baseline
        assert second is first  # the memoized object itself

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    def test_refill_matches_from_scratch(self, spec):
        """Demand change, join and departure — each spliced result must
        equal a cold solve on the new flow set."""
        topology = build_topology(spec, bandwidth=1e9)
        flows = flows_for(topology, 24)
        previous = allocate(topology, flows, cache=False)

        bumped = [
            FlowDemand(f.flow, f.path, f.demand * (1.5 if i == 3 else 1.0))
            for i, f in enumerate(flows)
        ]
        joined = bumped + [FlowDemand("late", flows[0].path, 2.0e8)]
        departed = [f for f in flows if f.flow != "f001"]
        for variant in (bumped, joined, departed):
            spliced = refill(topology, variant, previous, cache=False)
            scratch = allocate(topology, variant, cache=False)
            assert spliced == scratch

    def test_refill_unchanged_set_returns_previous(self):
        topology = build_topology(TOPOLOGY_SPECS[1], bandwidth=1e9)
        flows = flows_for(topology, 12)
        previous = allocate(topology, flows, cache=False)
        assert refill(topology, flows, previous, cache=False) is previous

    def test_refill_counts_lru_traffic(self):
        topology = build_topology(TOPOLOGY_SPECS[1], bandwidth=1e9)
        flows = flows_for(topology, 12)
        previous = allocate(topology, flows)  # miss 1
        bumped = [FlowDemand(f.flow, f.path, f.demand * 1.1) for f in flows]
        refill(topology, bumped, previous)  # miss on the full key
        info = alloc_cache_info()
        assert info.hits == 0 and info.misses >= 2
        refill(topology, bumped, previous)  # now a hit on the full key
        assert alloc_cache_info().hits == 1

    def test_cache_key_includes_capacities(self):
        """A brownout must never serve a pre-brownout memo."""
        topology = build_topology("single-link", bandwidth=1e9)
        flows = [FlowDemand("f", ("link",), 2e9)]
        before = allocate(topology, flows)
        topology.scale_bottleneck("link", 0.5)
        after = allocate(topology, flows)
        assert before.rates["f"] == 1e9
        assert after.rates["f"] == 0.5e9
        assert alloc_cache_info().misses == 2


class TestCarryProperty:
    """``refill`` — carry, splice or solve — equals a cold ``allocate``
    bit for bit on random fabrics, flows and weights, with bound flows'
    demands moved just above, well above, onto and below their level."""

    @staticmethod
    def fabric(rng):
        hops = [f"h{i}" for i in range(rng.randint(2, 6))]
        topology = from_edges(
            [(hop, rng.uniform(1.0, 10.0)) for hop in hops],
            {"p": ("a", "b", [hops[0]])},
        )
        flows = [
            FlowDemand(
                f"f{i}",
                tuple(rng.sample(hops, rng.randint(1, min(3, len(hops))))),
                rng.uniform(0.05, 8.0),
                rng.choice((0.5, 1.0, 1.0, 2.0, 3.0)),
            )
            for i in range(rng.randint(1, 10))
        ]
        return topology, flows

    @staticmethod
    def moved(rng, flows, result):
        out = []
        for f in flows:
            level = result.levels.get(f.flow)
            demand = f.demand
            if level is not None and rng.random() < 0.7:
                at = level * f.weight
                demand = rng.choice((
                    math.nextafter(at, math.inf),
                    at * rng.uniform(1.0, 3.0),
                    at,
                    at * rng.uniform(0.2, 1.0),
                ))
            elif rng.random() < 0.2:
                demand = demand * rng.uniform(0.5, 1.5)
            out.append(FlowDemand(f.flow, f.path, demand, f.weight))
        return out

    @staticmethod
    def assert_bit_equal(got, want):
        assert got == want
        for name in ("rates", "demands", "bottleneck_load", "bottleneck_demand"):
            a, b = getattr(got, name), getattr(want, name)
            assert {k: v.hex() for k, v in a.items()} == {
                k: v.hex() for k, v in b.items()
            }
        assert got.levels == want.levels

    @pytest.mark.parametrize("seed", range(60))
    def test_refill_chain_equals_cold_allocate(self, seed):
        rng = random.Random(seed)
        topology, flows = self.fabric(rng)
        previous = allocate(topology, flows, cache=False)
        carried = 0
        for _ in range(6):
            flows = self.moved(rng, flows, previous)
            got = refill(topology, flows, previous, cache=False)
            cold = allocate(topology, flows, cache=False)
            self.assert_bit_equal(got, cold)
            carried += carry(
                previous,
                [(f.flow, f.path, float(f.demand), float(f.weight)) for f in flows],
            ) is not None
            previous = got
        if seed == 0:  # the chain does take the carry, not only solves
            assert carried > 0

    def test_carry_needs_the_same_flows(self):
        topology = build_topology(TOPOLOGY_SPECS[1], bandwidth=1e9)
        flows = flows_for(topology, 12)
        previous = allocate(topology, flows, cache=False)
        raw = [(f.flow, f.path, float(f.demand), 1.0) for f in flows]
        assert carry(previous, raw) is previous
        assert carry(previous, raw[1:]) is None
        assert carry(previous, raw[:-1] + [("new", raw[-1][1], 1.0, 1.0)]) is None
        name, path, demand, _ = raw[0]
        assert carry(previous, [(name, path, demand, 2.0)] + raw[1:]) is None


# ----------------------------------------------------------------------
# netsim round reuse: binding decisions pinned to from-scratch allocate
# ----------------------------------------------------------------------


class TestRoundReuseBindingRegression:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("spec,max_concurrent,pins", [
        (TOPOLOGY_SPECS[1], 6, False),
        # one job at a time on thin spines: lone flows capped below
        # their demand floor, so the cached day takes pinned rounds
        ("leaf-spine:s=2,l=4,spine=0.1", 1, True),
    ], ids=["shared-flows", "pinned-lone-flow"])
    def test_day_identical_to_fresh_allocate_per_round(
        self, spec, max_concurrent, pins, placement, monkeypatch
    ):
        """The pinned-round hold, the carry, the LRU and ``refill``
        together must make exactly the decisions a from-scratch
        ``allocate`` per round would — pinned by running the same day
        with the hold and the carry switched off and ``refill``
        monkeypatched to an uncached cold solve, and demanding a
        byte-identical report (``_would_bind`` included: it shares the
        same ``refill`` entry point)."""
        import repro.netsim.multi as multi

        pinned_key = multi.MultiTransferSimulator._pinned_key
        keyed = []

        def counted_key(self, engine):
            keyed.append(engine)
            return pinned_key(self, engine)

        monkeypatch.setattr(multi.MultiTransferSimulator, "_pinned_key", counted_key)
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=spec, placement=placement,
                      placement_seed=7, max_concurrent_jobs=max_concurrent)
        cached = run_day(requests, **kwargs)
        # only a pinned round (or the hold check it arms) reads the key
        assert bool(keyed) == pins

        def cold(topology, flows, previous, *, changed=None,
                 max_rounds=64, cache=None):
            return allocate(topology, flows, cache=False)

        monkeypatch.setattr(multi, "refill", cold)
        monkeypatch.setattr(multi, "carry", lambda previous, flows: None)
        # a fresh key per call never matches the one a pinned round set
        monkeypatch.setattr(
            multi.MultiTransferSimulator, "_pinned_key",
            lambda self, engine: (object(),),
        )
        alloc_cache_clear()
        scratch = run_day(requests, **kwargs)
        assert report_json(cached) == report_json(scratch)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS[1:])
    def test_fast_vs_grid_with_caching(self, spec, placement):
        """With the LRU on and round reuse active, the fast path must
        still be an exact re-implementation of the dt-grid loop."""
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=spec, placement=placement, placement_seed=7,
                      max_concurrent_jobs=6)
        fast = run_day(requests, fast=True, **kwargs)
        alloc_cache_clear()
        grid = run_day(requests, fast=False, **kwargs)
        assert [j.name for j in fast.jobs] == [j.name for j in grid.jobs]
        for jf, jg in zip(fast.jobs, grid.jobs):
            for attr in ("submitted_at", "released_at", "admitted_at",
                         "completed_at"):
                assert getattr(jf, attr) == getattr(jg, attr), (jf.name, attr)
            for attr in ("energy_j", "cost_usd", "kg_co2"):
                a, b = getattr(jf, attr), getattr(jg, attr)
                assert a == pytest.approx(b, rel=1e-9), (jf.name, attr)

    def test_repeat_day_is_mostly_cache_hits(self):
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=TOPOLOGY_SPECS[1], placement="least-congested",
                      max_concurrent_jobs=6)
        run_day(requests, **kwargs)
        observer = Observer()
        run_day(requests, observer=observer, **kwargs)
        counters = observer.metrics.snapshot()["counters"]
        hits = counters.get("topo.alloc_cache_hits", 0.0)
        misses = counters.get("topo.alloc_cache_misses", 0.0)
        assert hits + misses > 0
        assert hits / (hits + misses) > 0.9


# ----------------------------------------------------------------------
# telemetry: counters, allocation_cached events, renderers
# ----------------------------------------------------------------------


class TestCacheTelemetry:
    def observed_day(self):
        observer = Observer()
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        run_day(requests, topology=TOPOLOGY_SPECS[1], observer=observer,
                max_concurrent_jobs=6)
        return observer

    def test_counters_and_events(self):
        observer = self.observed_day()
        counters = observer.metrics.snapshot()["counters"]
        assert counters.get("topo.alloc_cache_misses", 0.0) > 0
        assert "topo.alloc_cache_hits" in counters
        assert "topo.alloc_incremental_rounds" in counters
        kinds = observer.events.kinds()
        assert kinds.get("allocation_cached", 0) >= 1
        for event in observer.events.filter(kind="allocation_cached"):
            assert event.detail["rounds"] >= 1
            assert event.detail["span_s"] >= 0.0

    def test_renderers_format_the_new_event(self):
        observer = self.observed_day()
        text = render_events(observer.events)
        assert "allocation_cached" in text
        assert "cached round(s)" in text
        metrics = render_metrics(observer.metrics.snapshot())
        assert "topo.alloc_cache_hits" in metrics


# ----------------------------------------------------------------------
# fleet: topology-aware sharding
# ----------------------------------------------------------------------


class TestTopologyPairShards:
    def test_leaf_spine_carve_is_conservative(self):
        """Each trunk's carved capacity, summed over every shard that
        uses it, equals the fabric's capacity — the carve never
        oversubscribes the real fabric."""
        bandwidth = XSEDE.path.bandwidth
        shards = topology_pair_shards(XSEDE, "leaf-spine:s=2,l=4,spine=0.4")
        assert [s.name for s in shards] == [
            "p0-1", "p0-2", "p0-3", "p1-2", "p1-3", "p2-3"
        ]
        fabric = build_topology("leaf-spine:s=2,l=4,spine=0.4",
                                bandwidth=bandwidth)
        total = {hop: 0.0 for hop in fabric.bottlenecks}
        for spec in shards:
            carved = build_topology(spec.topology, bandwidth=bandwidth)
            assert set(spec.bottlenecks) <= set(fabric.bottlenecks)
            # a pair carve keeps every bottleneck; only the hops its
            # paths cross carry that shard's traffic
            used = {
                hop for path in carved.paths.values()
                for hop in path.bottlenecks
            }
            for hop in used:
                total[hop] += carved.capacity(hop)
        for hop in fabric.bottlenecks:
            assert total[hop] == pytest.approx(fabric.capacity(hop))

    def test_fat_tree_carve(self):
        shards = topology_pair_shards(XSEDE, "fat-tree:k=4,core=0.3")
        assert len(shards) == 6  # 4 pods -> C(4,2) pairs
        assert shards[0].bottlenecks == ("pod0", "pod1")
        carved = build_topology(shards[0].topology,
                                bandwidth=XSEDE.path.bandwidth)
        # pair= keeps all bottlenecks but only the pair's paths
        assert set(carved.bottlenecks) == {
            "pod0", "pod1", "pod2", "pod3", "core0", "core1", "core2",
            "core3",
        }
        assert all(
            path.src == "pod0" and path.dst == "pod1"
            for path in carved.paths.values()
        )

    def test_single_link_rejected(self):
        with pytest.raises(ValueError):
            topology_pair_shards(XSEDE, "single-link")


class TestTopologyAwareRouting:
    def fabric_and_specs(self):
        fabric = build_topology("leaf-spine:s=2,l=3",
                                bandwidth=XSEDE.path.bandwidth)
        specs = [
            ShardSpec("p0-1", XSEDE, bottlenecks=("leaf0", "leaf1")),
            ShardSpec("p0-2", XSEDE, bottlenecks=("leaf0", "leaf2")),
            ShardSpec("p1-2", XSEDE, bottlenecks=("leaf1", "leaf2")),
        ]
        return fabric, specs

    def test_requires_fabric_and_bottlenecks(self):
        fabric, specs = self.fabric_and_specs()
        reqs = [make_request(name="j0")]
        with pytest.raises(ValueError, match="fleet fabric"):
            route_requests(reqs, specs, routing="topology-aware")
        bare = [ShardSpec("a", XSEDE), ShardSpec("b", XSEDE)]
        with pytest.raises(ValueError, match="bottleneck"):
            route_requests(reqs, bare, routing="topology-aware",
                           topology=fabric)

    def test_spreads_over_disjoint_trunks(self):
        fabric, specs = self.fabric_and_specs()
        reqs = [make_request(name=f"j{i}", tenant="solo") for i in range(9)]
        routed = route_requests(reqs, specs, routing="topology-aware",
                                topology=fabric, steal_threshold=None)
        # every shard sees work: trunk pressure steers away from loaded
        # leaves, and the backlog tie-breaker spreads the saturated tail
        assert all(len(bucket) > 0 for bucket in routed.buckets)

    def test_fleet_day_deterministic_and_pool_identical(self):
        requests = poisson_workload(12, seed=7)
        kwargs = dict(
            policy=RunNow(),
            tariff=peak_offpeak_tariff(period_s=DAY),
            fast=True,
            topology="leaf-spine:s=2,l=3",
            routing="topology-aware",
        )
        reports = []
        for workers in (None, 2):
            alloc_cache_clear()
            plan_cache_clear()
            extra = {} if workers is None else {"workers": workers}
            fleet = FleetSimulator(XSEDE, **kwargs, **extra)
            assert [s.name for s in fleet.shards] == ["p0-1", "p0-2", "p1-2"]
            reports.append(fleet.run(requests))
        inline, pooled = reports
        assert [s.routed_jobs for s in inline.shards] \
            == [s.routed_jobs for s in pooled.shards]
        assert inline.total_energy_j == pooled.total_energy_j

    def test_topology_aware_requires_topology_spec(self):
        with pytest.raises(ValueError, match="topology"):
            FleetSimulator(
                XSEDE,
                policy=RunNow(),
                tariff=peak_offpeak_tariff(period_s=DAY),
                routing="topology-aware",
            )
