"""Topology subsystem benchmark: allocator throughput + placement gates.

Exercises ``repro.topo`` end to end and writes ``BENCH_topo.json``:

* **allocator throughput** — water-fill allocation rounds/sec at
  64/256/1024 flows on a k=4 fat-tree (the hot loop of every
  topology-backed simulation step), with cold (uncached), LRU-hit and
  incremental-refill columns;
* **topology fleet day** — a contended 1k-job topology service day,
  unsharded versus carved into topology-aware pair shards
  (``repro.service.fleet``): wall-clock speedup (gate: >= 10x), the
  sharded fast day bit-equal to its uncached dt-grid reference,
  a repeat day served almost entirely from the allocation LRU
  (gate: hit rate > 0.9) and a 10k-job sharded day completing in
  smoke mode;
* **placement-policy comparison** — one congested leaf-spine service
  day per policy; the informed ``least-congested`` policy must beat
  the load-blind ``random-k`` sampler on p95 slowdown;
* **fast vs grid** — topology-backed event-horizon runs must match the
  reference dt-grid loop (bit-equal job timestamps, cost/energy
  relative error at or below 1e-9) across two topologies and two
  placement policies;
* **single-link anchor** — a ``single-link`` topology must reproduce
  the classic point-to-point run byte-identically;
* **determinism** — every topology-backed cell re-run with the same
  seed must produce a byte-identical report.

``--check`` turns all five gates into a CI failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_topo.py            # full
    PYTHONPATH=src python benchmarks/bench_topo.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_topo.py --smoke --check

Not a pytest file on purpose: it is a standalone script so CI can run
it in smoke mode and upload the JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_service import _rel_err  # noqa: E402 — sibling bench module

from repro.chaos import strip_wall
from repro.service import (
    ServiceSimulator,
    policy_by_name,
    tariff_by_name,
    workload_by_name,
)
from repro.service.fleet import FleetSimulator
from repro.testbeds.specs import testbed_by_name
from repro.topo import (
    FlowDemand,
    Placer,
    alloc_cache_clear,
    alloc_cache_info,
    allocate,
    build_topology,
    refill,
    set_alloc_cache,
)

#: Flow counts for the allocator-throughput sweep.
FLOW_COUNTS = (64, 256, 1024)

#: (topology, placement) grid for the fast-vs-grid gate.
GATE_TOPOLOGIES = ("leaf-spine:s=2,l=4,spine=0.4", "fat-tree:k=4,core=0.3")
GATE_PLACEMENTS = ("least-congested", "ecmp-hash")

#: Congested fabric for the placement-policy comparison: two thin
#: spines force real route choices. Jobs are deliberately large
#: relative to the day (``size_scale=0.3``) so arrivals genuinely
#: overlap — a day of short, serial jobs ties every policy. p95 of a
#: small day is one order statistic, so the comparison averages over
#: three workload seeds.
COMPARE_TOPOLOGY = "leaf-spine:s=2,l=2,spine=0.35"
COMPARE_PLACEMENTS = ("least-congested", "ecmp-hash", "random-k")
COMPARE_SEEDS = (5, 7, 11)
COMPARE_SIZE_SCALE = 0.3

#: Relative-error budget for fast-vs-grid scalar aggregates (same
#: contract as the service/chaos benches: bit-equal times, float
#: accumulation-order equality on energy/cost).
REL_ERR_BUDGET = 1e-9

#: The contended topology fleet day: 1k overlapping jobs on a six-leaf
#: fabric. Unsharded, the engine cost grows superlinearly with the
#: number of concurrent transfers; carved into C(6,2)=15 pair shards
#: the same day is >= 10x faster (the CI gate) with every timestamp
#: pinned by the dt-grid reference.
FLEET_TOPOLOGY = "leaf-spine:s=2,l=6,spine=0.4"
FLEET_DAY_S = 8640.0
FLEET_JOBS = 1000
FLEET_SPEEDUP_GATE = 10.0
CACHE_HIT_RATE_GATE = 0.9
TENK_JOBS = 10000


def _bench_allocator(flows: int) -> dict:
    """Time water-fills of ``flows`` full-rate demands on a k=4
    fat-tree (placements fixed by ecmp round-robin), three ways: cold
    from-scratch solves, LRU hits on the identical flow set, and
    incremental ``refill`` after a single-flow demand change."""
    bandwidth = testbed_by_name("xsede").path.bandwidth
    topology = build_topology("fat-tree:k=4", bandwidth=bandwidth)
    placer = Placer(topology, "ecmp-hash")
    demands = [
        FlowDemand(f"flow-{i:04d}",
                   placer.place(f"flow-{i:04d}").bottlenecks, bandwidth)
        for i in range(flows)
    ]
    repeats = max(3, 2048 // flows)

    # cold: the pre-cache from-scratch solve
    result = allocate(topology, demands, cache=False)  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        result = allocate(topology, demands, cache=False)
    cold_wall = time.perf_counter() - start

    # cached: every repeat is an exact-signature LRU hit
    alloc_cache_clear()
    allocate(topology, demands)  # the one miss that seeds the memo
    cached_repeats = repeats * 64
    start = time.perf_counter()
    for _ in range(cached_repeats):
        allocate(topology, demands)
    cached_wall = time.perf_counter() - start
    info = alloc_cache_info()
    assert info.hits >= cached_repeats, info

    # refill: alternate one flow's demand so every call re-solves only
    # the interference component that flow touches
    bumped = [
        FlowDemand(f.flow, f.path,
                   f.demand * (0.5 if f.flow == demands[0].flow else 1.0))
        for f in demands
    ]
    previous = allocate(topology, demands, cache=False)
    variants = (bumped, demands)
    start = time.perf_counter()
    for i in range(repeats):
        previous = refill(topology, variants[i % 2], previous, cache=False)
    refill_wall = time.perf_counter() - start

    return {
        "flows": flows,
        "rounds_per_allocation": result.rounds,
        "allocations_per_sec": repeats / cold_wall,
        "rounds_per_sec": repeats * result.rounds / cold_wall,
        "cached_allocations_per_sec": cached_repeats / cached_wall,
        "refill_allocations_per_sec": repeats / refill_wall,
        "cached_speedup": (repeats / cold_wall) and (
            (cached_repeats / cached_wall) / (repeats / cold_wall)
        ),
        "wall_s": cold_wall + cached_wall + refill_wall,
    }


def _service_day(*, testbed, tariff, requests, fast=True, topology=None,
                 placement="least-congested", max_concurrent=8):
    simulator = ServiceSimulator(
        testbed, policy=policy_by_name("run-now"), tariff=tariff,
        max_concurrent_jobs=max_concurrent, max_channels=4, fast=fast,
        topology=topology, placement=placement,
    )
    return simulator.run(requests)


def _report_dict(report) -> dict:
    return strip_wall(report.to_dict())


def _fleet_day(*, testbed, tariff, requests, fast=True, cache=True):
    """One topology-aware sharded fleet day; returns (report, wall_s).
    ``cache=False`` runs the uncached reference (LRU off, restored
    after)."""
    from repro.service.policies import plan_cache_clear

    plan_cache_clear()
    alloc_cache_clear()
    prev = set_alloc_cache(cache)
    try:
        start = time.perf_counter()
        fleet = FleetSimulator(
            testbed, policy=policy_by_name("run-now"), tariff=tariff,
            fast=fast, topology=FLEET_TOPOLOGY, routing="topology-aware",
        )
        report = fleet.run(requests)
        wall = time.perf_counter() - start
    finally:
        set_alloc_cache(prev)
    return report, wall


def _bench_fleet_day(*, smoke: bool, seed: int) -> dict:
    """The 1k-job contended topology day, unsharded vs pair-sharded,
    plus the uncached dt-grid reference, the repeat-day LRU hit rate
    and the 10k-job feasibility cell."""
    from repro.service.policies import plan_cache_clear

    testbed = testbed_by_name("xsede")
    tariff = tariff_by_name("peak-offpeak", period_s=FLEET_DAY_S)
    size_scale = 0.075 if smoke else 0.1
    requests = workload_by_name(
        "bursty", FLEET_JOBS, day_s=FLEET_DAY_S, seed=seed,
        size_scale=size_scale,
    )

    # unsharded baseline: one simulator carries all 1k overlapping jobs
    plan_cache_clear()
    alloc_cache_clear()
    start = time.perf_counter()
    unsharded = _service_day(
        testbed=testbed, tariff=tariff, requests=requests,
        topology=FLEET_TOPOLOGY, max_concurrent=64,
    )
    unsharded_wall = time.perf_counter() - start

    fleet_report, fleet_wall = _fleet_day(
        testbed=testbed, tariff=tariff, requests=requests,
    )
    grid_report, grid_wall = _fleet_day(
        testbed=testbed, tariff=tariff, requests=requests,
        fast=False, cache=False,
    )

    times_bitequal = all(
        a.submitted_at == b.submitted_at
        and a.admitted_at == b.admitted_at
        and a.completed_at == b.completed_at
        for fast_shard, grid_shard in zip(
            fleet_report.shards, grid_report.shards
        )
        for a, b in zip(fast_shard.report.jobs, grid_shard.report.jobs)
    )

    # repeat day: a second identical fleet day against the warm LRU
    # (inline, same process) must be served almost entirely from cache
    plan_cache_clear()
    alloc_cache_clear()
    _fleet_repeat = FleetSimulator(
        testbed, policy=policy_by_name("run-now"), tariff=tariff,
        fast=True, topology=FLEET_TOPOLOGY, routing="topology-aware",
    )
    _fleet_repeat.run(requests)
    before = alloc_cache_info()
    FleetSimulator(
        testbed, policy=policy_by_name("run-now"), tariff=tariff,
        fast=True, topology=FLEET_TOPOLOGY, routing="topology-aware",
    ).run(requests)
    after = alloc_cache_info()
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    hit_rate = hits / max(hits + misses, 1)

    # 10k-job day: sharded, fast driver — must simply complete in CI
    tenk_requests = workload_by_name(
        "steady", TENK_JOBS, day_s=FLEET_DAY_S, seed=seed,
        size_scale=(0.5 if smoke else 1.0) * FLEET_DAY_S / 86400.0,
    )
    tenk_report, tenk_wall = _fleet_day(
        testbed=testbed, tariff=tariff, requests=tenk_requests,
    )

    return {
        "topology": FLEET_TOPOLOGY,
        "jobs": FLEET_JOBS,
        "day_s": FLEET_DAY_S,
        "size_scale": size_scale,
        "shards": len(fleet_report.shards),
        "unsharded_wall_s": unsharded_wall,
        "fleet_wall_s": fleet_wall,
        "speedup": unsharded_wall / fleet_wall,
        "grid_wall_s": grid_wall,
        "times_bitequal": times_bitequal,
        "rel_err_energy": _rel_err(
            fleet_report.total_energy_j, grid_report.total_energy_j
        ),
        "rel_err_cost": _rel_err(
            fleet_report.total_cost_usd, grid_report.total_cost_usd
        ),
        "repeat_hit_rate": hit_rate,
        "unsharded_energy_j": unsharded.total_energy_j,
        "fleet_energy_j": fleet_report.total_energy_j,
        "tenk": {
            "jobs": TENK_JOBS,
            "wall_s": tenk_wall,
            "completed": sum(
                len(shard.report.jobs) for shard in tenk_report.shards
            ) == TENK_JOBS,
        },
    }


def run_benchmark(*, smoke: bool = False, seed: int = 7) -> dict:
    testbed = testbed_by_name("xsede")
    jobs, day_s = (16, 1200.0) if smoke else (48, 3600.0)
    tariff = tariff_by_name("peak-offpeak", period_s=day_s)
    requests = workload_by_name(
        "steady", jobs, day_s=day_s, seed=seed, size_scale=day_s / 86400.0,
    )

    allocator = [_bench_allocator(flows) for flows in FLOW_COUNTS]

    fleet_day = _bench_fleet_day(smoke=smoke, seed=seed)

    # -- placement-policy comparison (congested fabric) -----------------
    compare_jobs, compare_day = (12, 600.0) if smoke else (24, 1200.0)
    compare_tariff = tariff_by_name("peak-offpeak", period_s=compare_day)
    comparison = []
    for placement in COMPARE_PLACEMENTS:
        per_seed = []
        deterministic = True
        start = time.perf_counter()
        for compare_seed in COMPARE_SEEDS:
            contended = workload_by_name(
                "bursty", compare_jobs, day_s=compare_day,
                seed=compare_seed, size_scale=COMPARE_SIZE_SCALE,
            )
            report = _service_day(
                testbed=testbed, tariff=compare_tariff, requests=contended,
                topology=COMPARE_TOPOLOGY, placement=placement,
                max_concurrent=6,
            )
            rerun = _service_day(
                testbed=testbed, tariff=compare_tariff, requests=contended,
                topology=COMPARE_TOPOLOGY, placement=placement,
                max_concurrent=6,
            )
            deterministic = deterministic and json.dumps(
                _report_dict(report), sort_keys=True
            ) == json.dumps(_report_dict(rerun), sort_keys=True)
            per_seed.append({
                "seed": compare_seed,
                "p95_slowdown": report.p95_slowdown,
                "makespan_s": report.makespan_s,
                "kwh": report.total_energy_j / 3.6e6,
                "cost_usd": report.total_cost_usd,
            })
        wall = time.perf_counter() - start
        comparison.append({
            "placement": placement,
            "topology": COMPARE_TOPOLOGY,
            "jobs": compare_jobs,
            "day_s": compare_day,
            "mean_p95_slowdown": sum(
                cell["p95_slowdown"] for cell in per_seed
            ) / len(per_seed),
            "per_seed": per_seed,
            "deterministic": deterministic,
            "wall_s": wall,
        })

    # -- fast vs grid across the (topology, placement) grid -------------
    gates = []
    for topology in GATE_TOPOLOGIES:
        for placement in GATE_PLACEMENTS:
            fast_report = _service_day(
                testbed=testbed, tariff=tariff, requests=requests,
                topology=topology, placement=placement,
            )
            grid_report = _service_day(
                testbed=testbed, tariff=tariff, requests=requests,
                fast=False, topology=topology, placement=placement,
            )
            gates.append({
                "topology": topology,
                "placement": placement,
                "times_bitequal": all(
                    a.admitted_at == b.admitted_at
                    and a.completed_at == b.completed_at
                    for a, b in zip(fast_report.jobs, grid_report.jobs)
                ),
                "rel_err_cost": _rel_err(
                    fast_report.total_cost_usd, grid_report.total_cost_usd
                ),
                "rel_err_energy": _rel_err(
                    fast_report.total_energy_j, grid_report.total_energy_j
                ),
                "rel_err_makespan": _rel_err(
                    fast_report.makespan_s, grid_report.makespan_s
                ),
            })

    # -- single-link anchor: byte-identical to the classic path ---------
    anchor = {}
    for fast in (True, False):
        plain = _report_dict(_service_day(
            testbed=testbed, tariff=tariff, requests=requests, fast=fast,
        ))
        routed = _report_dict(_service_day(
            testbed=testbed, tariff=tariff, requests=requests, fast=fast,
            topology="single-link",
        ))
        # The topology labels themselves are the only legitimate delta.
        for payload in (plain, routed):
            payload.pop("topology", None)
            payload.pop("placement", None)
        anchor["fast" if fast else "grid"] = json.dumps(
            plain, sort_keys=True
        ) == json.dumps(routed, sort_keys=True)

    return {
        "benchmark": "topo",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "testbed": "xsede",
        "jobs": jobs,
        "day_s": day_s,
        "seed": seed,
        "rel_err_budget": REL_ERR_BUDGET,
        "allocator": allocator,
        "fleet_day": fleet_day,
        "placement_comparison": comparison,
        "fast_vs_grid": gates,
        "single_link_byte_identical": anchor,
    }


def check_benchmark(report: dict) -> list[str]:
    """CI gate: placement ordering, determinism, fast-vs-grid, anchor."""
    failures = []
    p95 = {
        cell["placement"]: cell["mean_p95_slowdown"]
        for cell in report["placement_comparison"]
    }
    if p95["least-congested"] >= p95["random-k"]:
        failures.append(
            "least-congested did not beat random-k on p95 slowdown: "
            f"{p95['least-congested']:.3f} >= {p95['random-k']:.3f}"
        )
    for cell in report["placement_comparison"]:
        if not cell["deterministic"]:
            failures.append(
                f"{cell['placement']}: same-seed rerun was not "
                "byte-identical"
            )
    for gate in report["fast_vs_grid"]:
        tag = f"{gate['topology']}/{gate['placement']}"
        if not gate["times_bitequal"]:
            failures.append(f"{tag}: fast-vs-grid job timestamps diverged")
        for key in ("rel_err_cost", "rel_err_energy", "rel_err_makespan"):
            if gate[key] > report["rel_err_budget"]:
                failures.append(
                    f"{tag}: {key} {gate[key]:.3e} above the "
                    f"{report['rel_err_budget']:.0e} budget"
                )
    for driver, identical in report["single_link_byte_identical"].items():
        if not identical:
            failures.append(
                f"single-link topology diverged from the classic "
                f"point-to-point run ({driver} driver)"
            )
    fleet_day = report["fleet_day"]
    if fleet_day["speedup"] < FLEET_SPEEDUP_GATE:
        failures.append(
            f"sharded fleet day speedup {fleet_day['speedup']:.1f}x below "
            f"the {FLEET_SPEEDUP_GATE:.0f}x gate "
            f"({fleet_day['unsharded_wall_s']:.1f}s unsharded vs "
            f"{fleet_day['fleet_wall_s']:.1f}s sharded)"
        )
    if not fleet_day["times_bitequal"]:
        failures.append(
            "fleet day: fast-vs-grid job timestamps diverged"
        )
    for key in ("rel_err_energy", "rel_err_cost"):
        if fleet_day[key] > report["rel_err_budget"]:
            failures.append(
                f"fleet day: {key} {fleet_day[key]:.3e} above the "
                f"{report['rel_err_budget']:.0e} budget"
            )
    if fleet_day["repeat_hit_rate"] <= CACHE_HIT_RATE_GATE:
        failures.append(
            f"repeat fleet day LRU hit rate "
            f"{fleet_day['repeat_hit_rate']:.3f} at or below the "
            f"{CACHE_HIT_RATE_GATE} gate"
        )
    if not fleet_day["tenk"]["completed"]:
        failures.append("10k-job sharded day did not complete every job")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI mode: fewer jobs, shorter day, "
                             "lighter fleet-day contention")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed")
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: exit non-zero unless least-congested beats "
             "random-k, every cell is deterministic, fast-vs-grid "
             "errors stay below 1e-9, single-link is byte-identical, "
             "the sharded fleet day is >= 10x faster than unsharded "
             "with a > 0.9 repeat-day LRU hit rate, and the 10k-job "
             "day completes",
    )
    parser.add_argument(
        "-o", "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_topo.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(smoke=args.smoke, seed=args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"topo benchmark ({report['mode']}) -> {args.output}")
    for row in report["allocator"]:
        print(f"  allocator {row['flows']:>5d} flows: "
              f"{row['allocations_per_sec']:>8.0f} cold alloc/s, "
              f"{row['cached_allocations_per_sec']:>9.0f} cached/s "
              f"({row['cached_speedup']:.0f}x), "
              f"{row['refill_allocations_per_sec']:>7.0f} refill/s")
    fd = report["fleet_day"]
    print(f"  fleet day {fd['jobs']} jobs on {fd['topology']}: "
          f"unsharded {fd['unsharded_wall_s']:.1f}s, "
          f"{fd['shards']} shards {fd['fleet_wall_s']:.1f}s "
          f"({fd['speedup']:.1f}x), grid ref {fd['grid_wall_s']:.1f}s, "
          f"times {'bit-equal' if fd['times_bitequal'] else 'DIVERGED'}, "
          f"worst rel-err "
          f"{max(fd['rel_err_energy'], fd['rel_err_cost']):.1e}")
    print(f"  fleet repeat-day LRU hit rate {fd['repeat_hit_rate']:.3f}; "
          f"10k-job day "
          f"{'completed' if fd['tenk']['completed'] else 'INCOMPLETE'} "
          f"in {fd['tenk']['wall_s']:.1f}s")
    for cell in report["placement_comparison"]:
        det = "ok" if cell["deterministic"] else "DIVERGED"
        seeds = ", ".join(
            f"{row['p95_slowdown']:.2f}" for row in cell["per_seed"]
        )
        print(f"  {cell['placement']:<16s} mean p95 slowdown "
              f"{cell['mean_p95_slowdown']:>6.2f} (seeds: {seeds})  "
              f"det {det}")
    for gate in report["fast_vs_grid"]:
        worst = max(gate["rel_err_cost"], gate["rel_err_energy"],
                    gate["rel_err_makespan"])
        bits = "bit-equal" if gate["times_bitequal"] else "DIVERGED"
        print(f"  fast-vs-grid {gate['topology']:<28s} "
              f"{gate['placement']:<16s} times {bits}, "
              f"worst rel-err {worst:.1e}")
    for driver, identical in report["single_link_byte_identical"].items():
        print(f"  single-link anchor ({driver}): "
              f"{'byte-identical' if identical else 'DIVERGED'}")
    if args.check:
        failures = check_benchmark(report)
        if failures:
            for failure in failures:
                print(f"  CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("  checks passed: placement ordering, determinism, "
              "fast-vs-grid within 1e-9, single-link anchor, "
              ">=10x sharded fleet day, repeat-day hit rate > 0.9, "
              "10k-job completion")
    return 0


if __name__ == "__main__":
    sys.exit(main())
