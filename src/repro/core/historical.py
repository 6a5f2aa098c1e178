"""History-informed tuning.

HTEE pays a live search on every transfer. A service that moves similar
datasets over the same path every day can skip it: pick the concurrency
that maximized the throughput/energy ratio in its *archive* of past
runs and go straight there. This is the "tune from historical data"
strategy of the optimization literature the paper builds on (and of the
authors' own follow-up work); it trades HTEE's adaptivity for zero
probe overhead, and falls back to a live HTEE search when the archive
has nothing relevant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.allocation import chunk_params, htee_weights
from repro.core.chunks import PartitionPolicy, partition_files
from repro.core.htee import HTEEAlgorithm, scaled_allocation
from repro.core.scheduler import TransferOutcome, make_engine, make_plans, run_to_completion
from repro.datasets.files import Dataset
from repro.netsim.engine import Binding
from repro.testbeds.specs import Testbed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.store import ResultStore

__all__ = ["HistoricalTuner"]


@dataclass(frozen=True)
class HistoricalTuner:
    """Concurrency choice from archived runs; live HTEE as fallback.

    ``min_history`` past runs on the same testbed are required before
    the archive is trusted. Every run (historical or fallback) is
    appended back to the store, so the tuner improves with use.
    """

    store: ResultStore
    policy: PartitionPolicy = PartitionPolicy()
    min_history: int = 3
    name: str = "HistTune"

    def best_known_concurrency(self, testbed: Testbed) -> int | None:
        """The archived concurrency with the best efficiency, or None
        when the archive is too thin."""
        history = self.store.load(testbed=testbed.name)
        usable = [o for o in history if o.final_concurrency]
        if len(usable) < self.min_history:
            return None
        best = max(usable, key=lambda o: o.efficiency)
        return best.final_concurrency

    def run(self, testbed: Testbed, dataset: Dataset, max_channels: int) -> TransferOutcome:
        """Transfer at the archive's best-known concurrency (or run a
        live HTEE search on a cold archive), then archive the result."""
        if max_channels < 1:
            raise ValueError("max_channels must be >= 1")
        level = self.best_known_concurrency(testbed)
        if level is None:
            # cold start: do the live search, archive its findings
            outcome = HTEEAlgorithm(policy=self.policy).run(testbed, dataset, max_channels)
            outcome.extra["history_used"] = False
        else:
            level = max(1, min(level, max_channels))
            outcome = self._run_at(testbed, dataset, level, max_channels)
            outcome.extra["history_used"] = True
        self.store.append(outcome, tuner=self.name)
        return outcome

    def _run_at(
        self, testbed: Testbed, dataset: Dataset, level: int, max_channels: int
    ) -> TransferOutcome:
        """One straight run at the archived level (no probes)."""
        bdp = testbed.path.bdp
        chunks = partition_files(dataset, bdp, self.policy)
        weights = htee_weights(chunks)
        allocation = scaled_allocation(weights, level)
        plans = make_plans(
            chunks,
            [
                chunk_params(c, bdp, testbed.path.tcp_buffer, max(0, cc))
                for c, cc in zip(chunks, allocation, strict=True)
            ],
        )
        engine = make_engine(testbed, binding=Binding.PACK, work_stealing=True)
        for plan, cc in zip(plans, allocation, strict=True):
            engine.add_chunk(plan, open_channels=False)
            engine.set_chunk_channels(plan.name, cc)
        outcome = run_to_completion(
            engine, algorithm=self.name, testbed=testbed.name, max_channels=max_channels
        )
        outcome.final_concurrency = level
        return outcome
