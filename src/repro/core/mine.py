"""Algorithm 1 — Minimum Energy (MinE) transfer.

MinE minimizes transfer energy with no throughput objective: it
partitions the dataset around the BDP, gives small chunks deep
pipelines and most of the channel pool (idle-free channels are
energy-cheap throughput), starves large chunks down to a single
channel (extra channels on large files buy throughput at
disproportionate energy cost), and transfers all chunks concurrently —
the "Multi-Chunk" mechanism that recovers most of the throughput
deficit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import mine_walk
from repro.core.chunks import PartitionPolicy, partition_files
from repro.core.scheduler import (
    TransferOutcome,
    current_observer,
    make_engine,
    make_plans,
    run_to_completion,
)
from repro.datasets.files import Dataset
from repro.netsim.engine import Binding, ChunkPlan
from repro.testbeds.specs import Testbed

__all__ = ["MinEAlgorithm"]


@dataclass(frozen=True)
class MinEAlgorithm:
    """Minimum Energy transfer (Algorithm 1)."""

    policy: PartitionPolicy = PartitionPolicy()
    name: str = "MinE"

    def plan(self, testbed: Testbed, dataset: Dataset, max_channels: int) -> list[ChunkPlan]:
        """Lines 2-12: partition, then walk chunks small -> large
        computing (pipelining, parallelism, concurrency) per chunk."""
        if max_channels < 1:
            raise ValueError("max_channels must be >= 1")
        bdp = testbed.path.bdp
        chunks = partition_files(dataset, bdp, self.policy)
        params = mine_walk(chunks, bdp, testbed.path.tcp_buffer, max_channels)
        return make_plans(chunks, params)

    def run(self, testbed: Testbed, dataset: Dataset, max_channels: int) -> TransferOutcome:
        """Line 13: start all chunks concurrently, run to completion."""
        plans = self.plan(testbed, dataset, max_channels)
        engine = make_engine(testbed, binding=Binding.PACK, work_stealing=True)
        for plan in plans:
            engine.add_chunk(plan)
        observer = current_observer()
        if observer is not None:
            # MinE tunes once up front: record its planned allocation so
            # the event stream shows the starting point work stealing
            # later reshuffles.
            observer.emit(
                engine.time, "allocation_change",
                allocation={p.name: p.params.concurrency for p in plans},
            )
        outcome = run_to_completion(
            engine,
            algorithm=self.name,
            testbed=testbed.name,
            max_channels=max_channels,
        )
        outcome.final_concurrency = sum(p.params.concurrency for p in plans)
        outcome.extra["plans"] = [
            (p.name, p.params.pipelining, p.params.parallelism, p.params.concurrency)
            for p in plans
        ]
        return outcome
