"""The fleet layer: deterministic routing heuristics, work stealing,
merged shard accounting, warm-start contexts, and the single-shard
equivalence contract with the plain service simulator."""

import json
import pickle
import zlib

import pytest

from repro import units
from repro.cli import main as cli_main
from repro.datasets.files import Dataset
from repro.obs.events import EVENT_SCHEMA
from repro.obs.metrics import MetricsRegistry, merge_summaries
from repro.obs.observer import Observer, render_events
from repro.service import (
    BALANCED,
    ENERGY,
    FleetContext,
    FleetSimulator,
    RunNow,
    ServiceSimulator,
    ShardSpec,
    TransferRequest,
    flat_tariff,
    peak_offpeak_tariff,
    plan_cache_clear,
    route_requests,
)
from repro.service.fleet import ROUTING_POLICIES
from repro.testbeds.specs import testbed_by_name as named_testbed
from repro.topo.core import build_topology

DAY = 600.0


def make_request(name="job", tenant="t", sla_class=BALANCED, submit=0.0,
                 deadline=None, n_files=8, file_mb=5):
    ds = Dataset.from_sizes([file_mb * units.MB] * n_files, name=name)
    return TransferRequest(
        name, tenant, ds, sla=sla_class, submit_time=submit, deadline=deadline
    )


def shard_for(tenant: str, n: int) -> int:
    """The tenant-hash dispatch target (crc32, process-stable)."""
    return (zlib.crc32(tenant.encode("utf-8")) & 0xFFFFFFFF) % n


def disjoint_tenants(n: int) -> list[str]:
    """``n`` tenant names that tenant-hash onto ``n`` distinct shards."""
    found: dict[int, str] = {}
    i = 0
    while len(found) < n:
        name = f"tenant{i}"
        found.setdefault(shard_for(name, n), name)
        i += 1
    return [found[k] for k in range(n)]


def strip_wall(d: dict) -> dict:
    """A report dict minus the real-machine fields excluded from the
    determinism contract."""
    out = {k: v for k, v in d.items()
           if k not in ("wall_s", "jobs_per_sec", "jobs_per_day")}
    out["per_shard"] = [
        {k: v for k, v in row.items() if k != "wall_s"}
        for row in d["per_shard"]
    ]
    return out


# ----------------------------------------------------------------------
# routing heuristics
# ----------------------------------------------------------------------


class TestRouting:
    @pytest.fixture
    def specs3(self, small_testbed):
        return [ShardSpec(f"s{i}", small_testbed) for i in range(3)]

    def test_tenant_hash_sticky(self, specs3):
        reqs = [
            make_request(name=f"{t}-{i}", tenant=t, submit=float(i))
            for t in ("alpha", "beta", "gamma") for i in range(4)
        ]
        routed = route_requests(reqs, specs3, routing="tenant-hash",
                                steal_threshold=None)
        for tenant in ("alpha", "beta", "gamma"):
            homes = {
                i for i, bucket in enumerate(routed.buckets)
                for r in bucket if r.tenant == tenant
            }
            assert homes == {shard_for(tenant, 3)}

    def test_round_robin_cycles_in_canonical_order(self, specs3):
        # all submitted at t=0 -> dispatch order is name order
        reqs = [make_request(name=f"j{i}") for i in range(9)]
        routed = route_requests(reqs, specs3, routing="round-robin",
                                steal_threshold=None)
        names = [[r.name for r in bucket] for bucket in routed.buckets]
        assert names == [
            ["j0", "j3", "j6"], ["j1", "j4", "j7"], ["j2", "j5", "j8"],
        ]

    def test_least_loaded_balances_bytes(self, specs3):
        reqs = [make_request(name=f"j{i}", file_mb=1 + i % 3) for i in range(12)]
        routed = route_requests(reqs, specs3, routing="least-loaded")
        loads = [
            sum(r.total_bytes for r in bucket) for bucket in routed.buckets
        ]
        assert all(len(b) > 0 for b in routed.buckets)
        # greedy argmin keeps the spread under one max-sized job
        assert max(loads) - min(loads) <= 3 * units.MB * 8

    def test_weighted_follows_weights(self, small_testbed):
        specs = [
            ShardSpec("heavy", small_testbed, weight=3.0),
            ShardSpec("light", small_testbed, weight=1.0),
        ]
        reqs = [
            make_request(name=f"j{i}", tenant=f"tenant{i}") for i in range(64)
        ]
        routed = route_requests(reqs, specs, routing="weighted",
                                steal_threshold=None)
        assert len(routed.buckets[0]) > len(routed.buckets[1])

    def test_deterministic_across_calls_and_input_order(self, specs3):
        reqs = [
            make_request(name=f"j{i}", tenant=f"t{i % 5}", submit=float(i % 7))
            for i in range(20)
        ]
        fabric = build_topology("leaf-spine:s=2,l=3",
                                bandwidth=specs3[0].testbed.path.bandwidth)
        topo_specs = [
            ShardSpec(f"p0-{i + 1}", specs3[0].testbed,
                      bottlenecks=("leaf0", f"leaf{i + 1}"))
            for i in range(2)
        ] + [ShardSpec("p1-2", specs3[0].testbed,
                       bottlenecks=("leaf1", "leaf2"))]
        for routing in ROUTING_POLICIES:
            specs = topo_specs if routing == "topology-aware" else specs3
            topology = fabric if routing == "topology-aware" else None
            a = route_requests(reqs, specs, routing=routing, topology=topology)
            b = route_requests(list(reversed(reqs)), specs, routing=routing,
                               topology=topology)
            assert (
                [[r.name for r in bucket] for bucket in a.buckets]
                == [[r.name for r in bucket] for bucket in b.buckets]
            )

    def test_stealing_relieves_saturated_shard(self, small_testbed):
        specs = [ShardSpec("a", small_testbed), ShardSpec("b", small_testbed)]
        # one tenant -> tenant-hash piles everything on one shard
        reqs = [make_request(name=f"j{i}", tenant="solo") for i in range(10)]
        routed = route_requests(reqs, specs, routing="tenant-hash",
                                steal_threshold=1.0)
        assert routed.steals > 0
        assert sum(routed.stolen_in) == sum(routed.stolen_out) == routed.steals
        assert sorted(r.name for bucket in routed.buckets for r in bucket) \
            == sorted(r.name for r in reqs)
        assert all(len(bucket) > 0 for bucket in routed.buckets)

    def test_stealing_disabled_with_none(self, small_testbed):
        specs = [ShardSpec("a", small_testbed), ShardSpec("b", small_testbed)]
        reqs = [make_request(name=f"j{i}", tenant="solo") for i in range(10)]
        routed = route_requests(reqs, specs, routing="tenant-hash",
                                steal_threshold=None)
        assert routed.steals == 0
        assert {len(b) for b in routed.buckets} == {0, 10}

    def test_least_loaded_never_steals(self, specs3):
        reqs = [make_request(name=f"j{i}", tenant="solo") for i in range(30)]
        routed = route_requests(reqs, specs3, routing="least-loaded",
                                steal_threshold=1.0)
        assert routed.steals == 0

    def test_validation(self, small_testbed, specs3):
        reqs = [make_request()]
        with pytest.raises(ValueError, match="unknown routing"):
            route_requests(reqs, specs3, routing="random")
        with pytest.raises(ValueError, match="steal_threshold"):
            route_requests(reqs, specs3, steal_threshold=0.5)
        with pytest.raises(ValueError, match="at least one shard"):
            route_requests(reqs, [])
        with pytest.raises(ValueError, match="duplicate shard names"):
            route_requests(
                reqs,
                [ShardSpec("a", small_testbed), ShardSpec("a", small_testbed)],
            )
        with pytest.raises(ValueError, match="non-empty"):
            ShardSpec("", small_testbed)
        with pytest.raises(ValueError, match="weight"):
            ShardSpec("a", small_testbed, weight=0.0)


# ----------------------------------------------------------------------
# the fleet simulator
# ----------------------------------------------------------------------


def small_fleet(testbed, **kwargs):
    defaults = dict(
        policy=RunNow(), tariff=flat_tariff(period_s=DAY),
        shards=2, routing="round-robin", max_concurrent_jobs=2, workers=1,
    )
    defaults.update(kwargs)
    return FleetSimulator(testbed, **defaults)


class TestSingleShardEquivalence:
    def test_matches_plain_service_bit_for_bit(self, small_testbed):
        """A one-shard fleet is the plain service: identical admission
        decisions and bit-equal energy/cost/carbon."""
        reqs = [
            make_request(name=f"j{i}", tenant=f"t{i % 2}",
                         sla_class=ENERGY if i % 3 == 0 else BALANCED,
                         submit=7.0 * i, deadline=7.0 * i + DAY)
            for i in range(6)
        ]
        plan_cache_clear()
        single = ServiceSimulator(
            small_testbed, policy=RunNow(), tariff=flat_tariff(period_s=DAY),
            max_concurrent_jobs=2, fast=True,
        ).run(reqs)
        plan_cache_clear()
        fleet = small_fleet(small_testbed, shards=1).run(reqs)
        shard = fleet.shards[0].report
        assert len(shard.jobs) == len(single.jobs)
        for a, b in zip(shard.jobs, single.jobs, strict=True):
            assert (a.name, a.released_at, a.admitted_at, a.completed_at,
                    a.deferral_reason) \
                == (b.name, b.released_at, b.admitted_at, b.completed_at,
                    b.deferral_reason)
            assert a.energy_j == b.energy_j       # bit-equal
            assert a.cost_usd == b.cost_usd
            assert a.kg_co2 == b.kg_co2
        assert fleet.total_energy_j == single.total_energy_j
        assert fleet.total_cost_usd == single.total_cost_usd
        assert fleet.total_kg_co2 == single.total_kg_co2
        assert fleet.makespan_s == single.makespan_s

    def test_job_aggregates_match_the_shard_report(self, small_testbed):
        """A one-shard fleet's per-tenant rows, miss rate and queue wait
        are its shard report's, bit for bit."""
        reqs = [
            make_request(name=f"j{i}", tenant=f"t{i % 3}", submit=0.1 * i,
                         deadline=0.1 * i + 4.0, n_files=4 + i % 5, file_mb=20)
            for i in range(12)
        ]
        fleet = small_fleet(small_testbed, shards=1).run(reqs)
        shard = fleet.shards[0].report
        assert fleet.per_tenant == shard.per_tenant
        assert fleet.deadline_miss_rate == shard.deadline_miss_rate
        assert fleet.mean_queue_wait_s == shard.mean_queue_wait_s
        # the queue actually formed and some deadlines were missed
        assert shard.mean_queue_wait_s > 1.0
        assert 0 < shard.deadline_miss_rate < 1


class TestFleetMerge:
    """Merged accounting across >= 3 shards with disjoint tenants."""

    @pytest.fixture
    def report(self, small_testbed):
        tenants = disjoint_tenants(3)
        reqs = [
            make_request(name=f"{t}-{i}", tenant=t, submit=3.0 * i,
                         n_files=4, file_mb=2 + k)
            for k, t in enumerate(tenants) for i in range(3)
        ]
        fleet = small_fleet(
            small_testbed, shards=3, routing="tenant-hash",
            steal_threshold=None,
        )
        return fleet.run(reqs), tenants

    def test_totals_are_shard_sums(self, report):
        fleet, _ = report
        assert fleet.jobs_total == 9
        assert fleet.total_bytes == sum(
            s.report.total_bytes for s in fleet.shards
        )
        assert fleet.total_energy_j == sum(
            s.report.total_energy_j for s in fleet.shards
        )
        assert fleet.total_cost_usd == sum(
            s.report.total_cost_usd for s in fleet.shards
        )
        assert fleet.makespan_s == max(
            s.report.makespan_s for s in fleet.shards
        )
        assert sorted(fleet.slowdowns) == sorted(
            s for shard in fleet.shards for s in shard.report.slowdowns
        )

    def test_disjoint_tenants_stay_whole_rows(self, report):
        fleet, tenants = report
        assert sorted(fleet.per_tenant) == sorted(tenants)
        for shard in fleet.shards:
            assert len(shard.report.per_tenant) == 1
            ((tenant, row),) = shard.report.per_tenant.items()
            merged = fleet.per_tenant[tenant]
            for key in ("jobs", "bytes", "kwh", "cost_usd", "kg_co2",
                        "deferred", "deadline_misses", "mean_queue_wait_s"):
                assert merged[key] == pytest.approx(row[key])

    def test_to_dict_and_render_agree(self, report):
        fleet, tenants = report
        d = fleet.to_dict()
        json.dumps(d)  # JSON-safe throughout
        assert d["jobs"] == fleet.jobs_total == 9
        assert d["shards"] == 3
        assert d["total_kwh"] == pytest.approx(fleet.total_energy_j / 3.6e6)
        assert [row["shard"] for row in d["per_shard"]] == ["s0", "s1", "s2"]
        assert sorted(d["per_tenant"]) == sorted(tenants)
        text = fleet.render()
        for name in ("s0", "s1", "s2", *tenants):
            assert name in text
        assert f"{fleet.jobs_total} jobs" in text

    def test_shared_tenant_waits_reaverage(self, small_testbed):
        """The same tenant split across shards re-averages queue wait
        weighted by job count, not by shard."""
        reqs = [
            make_request(name=f"j{i}", tenant="shared", submit=0.0)
            for i in range(4)
        ]
        fleet = small_fleet(
            small_testbed, shards=2, routing="round-robin",
            max_concurrent_jobs=1,
        ).run(reqs)
        rows = [s.report.per_tenant["shared"] for s in fleet.shards]
        expected = (
            sum(r["mean_queue_wait_s"] * r["jobs"] for r in rows)
            / sum(r["jobs"] for r in rows)
        )
        merged = fleet.per_tenant["shared"]
        assert merged["jobs"] == 4
        assert merged["mean_queue_wait_s"] == pytest.approx(expected)

    def test_deterministic_report(self, small_testbed):
        reqs = [
            make_request(name=f"j{i}", tenant=f"t{i % 3}", submit=2.0 * i)
            for i in range(8)
        ]
        dumps = []
        for _ in range(2):
            plan_cache_clear()
            report = small_fleet(small_testbed, shards=3).run(reqs)
            dumps.append(
                json.dumps(strip_wall(report.to_dict()), sort_keys=True)
            )
        assert dumps[0] == dumps[1]


class TestFleetValidation:
    def test_constructor_rejects_bad_args(self, small_testbed):
        kwargs = dict(policy=RunNow(), tariff=flat_tariff(period_s=DAY))
        with pytest.raises(ValueError, match="exactly one"):
            FleetSimulator(**kwargs)
        with pytest.raises(ValueError, match="exactly one"):
            FleetSimulator(
                small_testbed,
                shard_specs=[ShardSpec("a", small_testbed)], **kwargs,
            )
        with pytest.raises(ValueError, match="shards must be >= 1"):
            FleetSimulator(small_testbed, shards=0, **kwargs)
        with pytest.raises(ValueError, match="unknown routing"):
            FleetSimulator(small_testbed, routing="bogus", **kwargs)
        with pytest.raises(ValueError, match="steal_threshold"):
            FleetSimulator(small_testbed, steal_threshold=0.0, **kwargs)
        with pytest.raises(ValueError, match="workers"):
            FleetSimulator(small_testbed, workers=0, **kwargs)
        with pytest.raises(ValueError, match="duplicate shard names"):
            FleetSimulator(
                shard_specs=[
                    ShardSpec("a", small_testbed), ShardSpec("a", small_testbed),
                ],
                **kwargs,
            )


# ----------------------------------------------------------------------
# observability: fleet events, counters, merged summaries
# ----------------------------------------------------------------------


class TestFleetObservability:
    def test_event_schema_has_fleet_kinds(self):
        assert EVENT_SCHEMA["shard_started"].keys == frozenset({"shard", "jobs"})
        assert EVENT_SCHEMA["shard_completed"].keys == frozenset(
            {"shard", "jobs", "wall_s"}
        )
        assert EVENT_SCHEMA["job_routed"].keys == frozenset({"job", "shard"})
        assert EVENT_SCHEMA["work_stolen"].keys == frozenset(
            {"job", "from_shard", "to_shard"}
        )

    def test_fleet_run_emits_lifecycle(self, small_testbed):
        observer = Observer()
        reqs = [make_request(name=f"j{i}", submit=2.0 * i) for i in range(4)]
        small_fleet(small_testbed, observer=observer).run(reqs)
        assert len(observer.events.filter(kind="job_routed")) == 4
        assert len(observer.events.filter(kind="shard_started")) == 2
        assert len(observer.events.filter(kind="shard_completed")) == 2
        metrics = observer.metrics
        assert metrics.counter("fleet.jobs_routed").value == 4
        assert metrics.counter("fleet.shard_starts").value == 2
        assert metrics.counter("fleet.shard_completions").value == 2
        assert metrics.counter("fleet.shard_jobs.s0").value == 2
        assert metrics.counter("fleet.shard_jobs.s1").value == 2
        # per-shard service counters were merged into the parent
        assert metrics.counter("service.jobs_completed").value == 4
        text = render_events(observer.events, kind="job_routed")
        assert "-> s0" in text

    def test_work_stolen_event_rendered(self, small_testbed):
        observer = Observer()
        specs = [ShardSpec("a", small_testbed), ShardSpec("b", small_testbed)]
        reqs = [make_request(name=f"j{i}", tenant="solo") for i in range(10)]
        routed = route_requests(reqs, specs, routing="tenant-hash",
                                steal_threshold=1.0, observer=observer)
        events = observer.events.filter(kind="work_stolen")
        assert len(events) == routed.steals > 0
        assert observer.metrics.counter("fleet.work_steals").value \
            == routed.steals
        text = render_events(observer.events, kind="work_stolen")
        assert "a -> b" in text or "b -> a" in text

    def test_merge_summaries_fleet_counters_and_histograms(self):
        a, b = Observer(), Observer()
        a.emit(10.0, "shard_completed", shard="s0", jobs=5, wall_s=1.0)
        b.emit(12.0, "shard_completed", shard="s1", jobs=7, wall_s=2.0)
        b.emit(13.0, "shard_completed", shard="s2", jobs=3, wall_s=4.0)
        merged = merge_summaries([a.summary(), b.summary()])
        counters = merged["metrics"]["counters"]
        assert counters["fleet.shard_completions"] == 3
        hist = merged["metrics"]["histograms"]["fleet.shard_wall_s"]
        one = a.summary()["metrics"]["histograms"]["fleet.shard_wall_s"]
        assert hist["bounds"] == one["bounds"]  # bucket alignment held
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(7.0)
        assert sum(hist["counts"]) == 3
        assert merged["event_counts"]["shard_completed"] == 3

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=[1.0, 2.0]).observe(0.5)
        b.histogram("h", bounds=[1.0, 3.0]).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_summaries([a.snapshot(), b.snapshot()])


# ----------------------------------------------------------------------
# warm-start context
# ----------------------------------------------------------------------


class TestWarmStart:
    def test_context_roundtrip(self, tmp_path, small_testbed):
        plan_cache_clear()
        fleet = small_fleet(small_testbed)
        fleet.run([make_request(name=f"j{i}") for i in range(4)])
        context = fleet.last_context
        assert context is not None and len(context) > 0
        assert context.source.startswith("fleet:2x")
        path = context.save(tmp_path / "ctx.pkl")
        loaded = FleetContext.load(path)
        assert loaded.entries == context.entries
        assert loaded.source == context.source

    def test_load_rejects_foreign_pickle(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with path.open("wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.raises(TypeError, match="FleetContext"):
            FleetContext.load(path)

    def test_warm_run_never_misses_and_matches_cold(self, small_testbed):
        reqs = [
            make_request(name=f"j{i}", tenant=f"t{i % 2}", submit=3.0 * i,
                         n_files=4 + (i % 2), file_mb=2)
            for i in range(6)
        ]

        def run(warm):
            plan_cache_clear()
            observer = Observer()
            fleet = small_fleet(
                small_testbed, observer=observer, warm_context=warm,
            )
            report = fleet.run(reqs)
            counters = report.metrics["metrics"]["counters"]
            return report, fleet.last_context, counters

        cold_report, context, cold_counters = run(None)
        assert cold_counters["service.plan_cache_misses"] > 0
        warm_report, _, warm_counters = run(context)
        assert warm_counters.get("service.plan_cache_misses", 0) == 0
        assert warm_counters["service.plan_cache_hits"] \
            >= cold_counters["service.plan_cache_misses"]
        # the cache is an accelerator, never an answer-changer
        assert strip_wall(warm_report.to_dict()) \
            == strip_wall(cold_report.to_dict())


# ----------------------------------------------------------------------
# process-pool execution and the CLI
# ----------------------------------------------------------------------


class TestPoolPath:
    def test_pool_matches_inline(self):
        """Two worker processes produce the same report as inline
        execution (shards are independent simulations)."""
        testbed = named_testbed("xsede")
        reqs = [
            make_request(name=f"j{i}", tenant=f"t{i % 3}", submit=30.0 * i,
                         n_files=4, file_mb=200)
            for i in range(6)
        ]
        reports = []
        for workers in (1, 2):
            plan_cache_clear()
            fleet = FleetSimulator(
                testbed, policy=RunNow(),
                tariff=peak_offpeak_tariff(period_s=DAY),
                shards=2, routing="round-robin", workers=workers,
            )
            reports.append(strip_wall(fleet.run(reqs).to_dict()))
        assert reports[0] == reports[1]


class TestFleetServiceCLI:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        code = cli_main([
            "fleet-service", "-t", "xsede", "--jobs", "8", "--shards", "2",
            "--day", "300", "--workers", "1", "--seed", "3",
            "--json", str(out),
        ])
        assert code == 0
        assert "Fleet day across 2 shards" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["jobs"] == 8
        assert data["routing"] == "tenant-hash"
        assert len(data["per_shard"]) == 2

    def test_context_roundtrip(self, tmp_path, capsys):
        ctx = tmp_path / "ctx.pkl"
        argv = [
            "fleet-service", "-t", "xsede", "--jobs", "6", "--shards", "2",
            "--day", "300", "--workers", "1", "--context", str(ctx),
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "context saved" in first and ctx.exists()
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert "warm-start context loaded" in second

    def test_rejects_unknown_routing(self, capsys):
        code = cli_main(["fleet-service", "--routing", "bogus"])
        assert code == 2
        assert "unknown routing" in capsys.readouterr().err
