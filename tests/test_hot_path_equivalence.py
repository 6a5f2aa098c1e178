"""Rewritten hot paths against the straightforward code they replace.

Each test re-implements the earlier, plainer version as a local oracle
and requires exact equality with the library, request by request:

* ``plan_for`` scores the HTEE ladder from per-chunk terms computed
  once and prices power with the engine's ``power_kernel``; the oracle
  builds and predicts a full plan on every rung, with
  ``compute_utilization`` and ``FineGrainedPowerModel.power`` (a
  zero-power testbed makes every rung tie, which pins the tie rule);
* ``log_uniform_dataset`` draws its sizes as vectors; the oracle draws
  one scalar uniform per file;
* the engine's drain lower bound reads a chunk's busy channels, rates
  and completion times from the round's view, in busy order; the
  oracle walks the chunk's channel registry and looks each rate up by
  channel id, as the bound did when rates were a dict.

The oracles are compared by ``repr`` / list equality, not by a stored
digest, so the contract is "same numbers as the plain code on this
interpreter", whatever its float summation does in the last bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.allocation import chunk_params, htee_weights
from repro.core.chunks import PartitionPolicy, partition_files
from repro.core.htee import probe_ladder, scaled_allocation
from repro.core.mine import MinEAlgorithm
from repro.core.scheduler import make_plans
from repro.core.slaee import sla_allocation
from repro.datasets.files import FileInfo
from repro.datasets.generators import log_uniform_dataset
from repro.netsim import tcp
from repro.netsim.engine import ChunkPlan
from repro.netsim.params import TransferParams
from repro.netsim.utilization import compute_utilization
from repro.power.models import FineGrainedPowerModel
from repro.service.policies import plan_for
from repro.service.requests import DEFAULT_TENANTS, diurnal_workload
from repro.testbeds.specs import ALL_TESTBEDS, XSEDE

# ----------------------------------------------------------------------
# plan_for vs rung-by-rung build-and-predict
# ----------------------------------------------------------------------


def _oracle_predict(testbed, plans) -> tuple[float, float]:
    """(throughput, power) of ``plans``: per-plan caps and pipelining
    stalls, shared link/disk/NIC bounds, Eq. 1 via utilization."""
    src = testbed.source.server
    dst = testbed.destination.server
    total_channels = sum(p.params.concurrency for p in plans)
    total_streams = sum(p.params.concurrency * p.params.parallelism for p in plans)
    demand = 0.0
    for plan in plans:
        if plan.params.concurrency <= 0 or plan.file_count == 0:
            continue
        cap = min(
            tcp.channel_network_cap(testbed.path, plan.params.parallelism),
            min(src.per_channel_rate, dst.per_channel_rate),
        )
        avg = sum(f.size for f in plan.files) / plan.file_count
        efficiency = 1.0
        if avg > 0 and cap > 0:
            transfer_time = avg / cap
            gap = (
                2.5 * testbed.path.rtt / plan.params.pipelining
                + src.per_file_overhead
                + dst.per_file_overhead
            )
            efficiency = transfer_time / (transfer_time + gap)
        demand += plan.params.concurrency * cap * efficiency
    if demand <= 0:
        return 0.0, 0.0
    aggregate = min(
        demand,
        tcp.aggregate_goodput(testbed.path, max(1, total_streams)),
        src.disk.aggregate_capacity(max(1, total_channels)),
        dst.disk.aggregate_capacity(max(1, total_channels)),
        min(src.nic_rate, dst.nic_rate),
    )
    model = FineGrainedPowerModel(testbed.coefficients)
    power = 0.0
    for site in (testbed.source, testbed.destination):
        util = compute_utilization(
            site.server,
            channels=max(1, total_channels),
            streams=max(1, total_streams),
            throughput=aggregate,
        )
        power += model.power(site.server, util)
    return aggregate, power


def _oracle_plan(testbed, request, max_channels, policy=PartitionPolicy()):
    """``(algorithm, plans, est_duration_s, est_energy_j)``, planning the
    balanced class by building and predicting every ladder rung."""
    bdp = testbed.path.bdp
    buffer = testbed.path.tcp_buffer
    kind = request.sla.kind
    if kind == "energy":
        algorithm = "MinE"
        plans = MinEAlgorithm(policy=policy).plan(testbed, request.dataset, max_channels)
    elif kind == "balanced":
        algorithm = "HTEE-static"
        chunks = partition_files(request.dataset, bdp, policy)
        weights = htee_weights(chunks)
        plans, best = None, -math.inf
        for cc in probe_ladder(max_channels):
            allocation = scaled_allocation(weights, cc)
            candidate = make_plans(chunks, [
                chunk_params(chunk, bdp, buffer, alloc)
                for chunk, alloc in zip(chunks, allocation)
            ])
            throughput, power = _oracle_predict(testbed, candidate)
            score = throughput / power if power > 0 else 0.0
            if score > best + 1e-12:
                best, plans = score, candidate
    else:
        algorithm = "SLAEE-static"
        chunks = partition_files(request.dataset, bdp, policy)
        target = max(1, math.ceil(request.sla.level * testbed.sla_reference_concurrency))
        plans = make_plans(chunks, [
            chunk_params(chunk, bdp, buffer, alloc)
            for chunk, alloc in zip(chunks, sla_allocation(chunks, target))
        ])
    throughput, power = _oracle_predict(testbed, plans)
    total = sum(sum(f.size for f in p.files) for p in plans)
    if throughput <= 0 or total <= 0:
        return algorithm, tuple(plans), 0.0, 0.0
    duration = total / throughput
    return algorithm, tuple(plans), duration, power * duration


def _requests():
    return [
        request
        for seed in (1, 2, 3)
        for request in diurnal_workload(
            110, day_s=3600.0, seed=seed, tenants=DEFAULT_TENANTS,
            size_scale=1 / 24,
        )
    ]


@pytest.mark.parametrize("testbed", ALL_TESTBEDS, ids=lambda t: t.name)
def test_plan_for_matches_rung_by_rung_oracle(testbed):
    requests = _requests()
    assert len(requests) >= 300
    assert {r.sla.kind for r in requests} == {"energy", "balanced", "sla"}
    for max_channels in (4, 7):
        for request in requests:
            plan = plan_for(testbed, request, max_channels, use_cache=False)
            got = (plan.algorithm, plan.plans, plan.est_duration_s, plan.est_energy_j)
            assert repr(got) == repr(_oracle_plan(testbed, request, max_channels))


def test_ladder_ties_keep_the_lowest_rung():
    """With the Eq. 1 model scaled to zero every rung scores 0.0, so
    the tie rule alone picks the rung: the first, one channel."""
    testbed = replace(XSEDE, coefficients=XSEDE.coefficients.scaled(0.0))
    balanced = [r for r in _requests() if r.sla.kind == "balanced"][:40]
    for request in balanced:
        plan = plan_for(testbed, request, 7, use_cache=False)
        assert plan.planned_channels == 1
        got = (plan.algorithm, plan.plans, plan.est_duration_s, plan.est_energy_j)
        assert repr(got) == repr(_oracle_plan(testbed, request, 7))


# ----------------------------------------------------------------------
# log_uniform_dataset vs one scalar draw per file
# ----------------------------------------------------------------------


def _oracle_sizes(total_size, min_size, max_size, seed) -> list[int]:
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    acc = 0.0
    lo, hi = np.log(min_size), np.log(max_size)
    while acc < total_size:
        s = float(np.exp(rng.uniform(lo, hi)))
        sizes.append(int(s))
        acc += s
    arr = np.array(sizes, dtype=float)
    arr *= total_size / arr.sum()
    arr = np.maximum(arr.astype(np.int64), int(min_size))
    remainder = int(total_size) - int(arr.sum())
    arr[int(np.argmax(arr))] += remainder
    rng.shuffle(arr)
    return [int(v) for v in arr]


def _draw_cases(count: int) -> list[tuple[float, float, float, int]]:
    """Seeded ``(total, min, max, seed)`` cases: log-spread ranges, with
    every 5th case at ``total == max`` and every 7th at ``min == max``."""
    rng = np.random.default_rng(20261018)
    cases = []
    for i in range(count):
        min_size = float(np.exp(rng.uniform(np.log(1e3), np.log(1e9))))
        max_size = min_size if i % 7 == 0 else min_size * float(np.exp(rng.uniform(0.0, 8.0)))
        total = max_size if i % 5 == 0 else max_size * float(np.exp(rng.uniform(0.0, 6.0)))
        cases.append((total, min_size, max_size, int(rng.integers(0, 2**31 - 1))))
    return cases


def test_log_uniform_sizes_match_scalar_draws():
    cases = _draw_cases(600)
    assert any(total == max_size for total, _, max_size, _ in cases)
    assert any(min_size == max_size for _, min_size, max_size, _ in cases)
    for total, min_size, max_size, seed in cases:
        got = [f.size for f in log_uniform_dataset(total, min_size, max_size, seed=seed)]
        assert got == _oracle_sizes(total, min_size, max_size, seed), (
            total, min_size, max_size, seed,
        )


# ----------------------------------------------------------------------
# the drain lower bound vs the registry walk with rates by channel id
# ----------------------------------------------------------------------


def _oracle_drain_bound(engine, name, rate_of) -> float:
    """The long-queue analytic drain bound of chunk ``name``, walking
    the chunk's channel registry with each rate looked up by id."""
    state = engine.chunks[name]
    merged = []
    for c in engine.channels_for(name):
        rate = rate_of.get(id(c), 0.0)
        if rate <= 0.0 or c.current is None:
            continue
        first = c.gap_remaining + c.current.remaining / rate
        merged.append((first, c.per_file_gap + state.min_queued_lb / rate))
    f_min = min(first for first, _ in merged)
    per_sec = sum(1.0 / spacing for _, spacing in merged)
    return f_min + max(0.0, (len(state.queue) - len(merged)) / per_sec)


def test_drain_bound_sums_in_registry_order(make_small_engine):
    """Work stealing can put a chunk's busy channels in another order
    than its registry; the bound still adds ``1/spacing`` in registry
    order. The rates are picked so that the order changes the sum."""
    engine = make_small_engine()
    files = tuple(FileInfo(f"f{i}", (1 + i % 7) * 1_000_000) for i in range(80))
    engine.add_chunk(ChunkPlan("c", files, TransferParams(concurrency=3, pipelining=2)))
    busy, _rates = engine.prepare_step()
    state = engine.chunks["c"]
    assert len(busy) == 3 and len(state.queue) > 64
    rates = (1.0, 3e7, 5e7)  # registry order: busy[i] at rates[i]
    spacing = [busy[0].per_file_gap + state.min_queued_lb / r for r in rates]
    registry_sum = sum(1.0 / s for s in spacing)
    order = next(
        p for p in itertools.permutations(range(3))
        if sum(1.0 / spacing[i] for i in p) != registry_sum
    )
    chans = [busy[i] for i in order]
    crates = [rates[i] for i in order]
    ttcs = [c.time_to_completion(r) for c, r in zip(chans, crates)]
    got = engine._drain_lower_bound(state, chans, crates, ttcs, math.inf)
    want = _oracle_drain_bound(engine, "c", {id(c): r for c, r in zip(busy, rates)})
    assert repr(got) == repr(want)
