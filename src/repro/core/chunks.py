"""Dataset partitioning (the ``partitionFiles`` / ``mergeChunks``
subroutines shared by Algorithms 1-3).

Files are classified into **Small / Medium / Large** chunks relative to
the path's bandwidth-delay product: pipelining only pays for files
smaller than the BDP (Section 2.1), and parallelism only pays once
files are large against the TCP buffer, so the BDP is the natural
boundary scale. Undersized chunks are merged into their neighbor so no
chunk is "too small to be treated separately" (``mergeChunks``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from repro.datasets.files import Dataset, FileInfo

__all__ = ["ChunkClass", "Chunk", "PartitionPolicy", "partition_files", "merge_chunks"]


class ChunkClass(enum.IntEnum):
    """Chunk classes ordered small -> large (the walk order of Alg. 1)."""

    SMALL = 0
    MEDIUM = 1
    LARGE = 2


@dataclass(frozen=True)
class Chunk:
    """A homogeneous group of files transferred with one parameter set."""

    chunk_class: ChunkClass
    files: tuple[FileInfo, ...]

    @property
    def name(self) -> str:
        return self.chunk_class.name.lower()

    @cached_property
    def total_size(self) -> int:
        """Sum of the chunk's file sizes (computed once: it is frozen)."""
        return sum(f.size for f in self.files)

    @property
    def file_count(self) -> int:
        return len(self.files)

    @property
    def average_file_size(self) -> float:
        if not self.files:
            return 0.0
        return self.total_size / len(self.files)


@dataclass(frozen=True)
class PartitionPolicy:
    """Chunk boundaries and merge thresholds.

    A file is *Small* when ``size < small_factor * BDP`` (it benefits
    from pipelining), *Large* when ``size >= large_factor * BDP``, and
    *Medium* in between. A chunk is merged away when it holds fewer
    than ``min_files`` files **and** less than ``min_bytes_fraction``
    of the dataset's bytes.
    """

    small_factor: float = 1.0
    large_factor: float = 20.0
    min_files: int = 2
    min_bytes_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.small_factor <= 0 or self.large_factor <= self.small_factor:
            raise ValueError("need 0 < small_factor < large_factor")
        if self.min_files < 0:
            raise ValueError("min_files must be >= 0")
        if not (0 <= self.min_bytes_fraction < 1):
            raise ValueError("min_bytes_fraction must be in [0, 1)")

    def classify(self, size: float, bdp: float) -> ChunkClass:
        """The chunk class of a file of ``size`` bytes on a ``bdp`` path."""
        if size < self.small_factor * bdp:
            return ChunkClass.SMALL
        if size < self.large_factor * bdp:
            return ChunkClass.MEDIUM
        return ChunkClass.LARGE


def partition_files(
    dataset: Dataset,
    bdp: float,
    policy: PartitionPolicy = PartitionPolicy(),
) -> list[Chunk]:
    """``partitionFiles``: split a dataset into Small/Medium/Large
    chunks around the BDP, then merge undersized chunks.

    Returns non-empty chunks ordered small -> large (the iteration
    order of Algorithm 1's channel-assignment walk).
    """
    if bdp < 0:
        raise ValueError(f"bdp must be >= 0, got {bdp}")
    buckets: dict[ChunkClass, list[FileInfo]] = {c: [] for c in ChunkClass}
    for file in dataset:
        buckets[policy.classify(file.size, bdp)].append(file)
    chunks = [
        Chunk(chunk_class=c, files=tuple(buckets[c]))
        for c in sorted(ChunkClass)
        if buckets[c]
    ]
    return merge_chunks(chunks, dataset.total_size, policy)


def merge_chunks(
    chunks: list[Chunk],
    dataset_total: int,
    policy: PartitionPolicy = PartitionPolicy(),
) -> list[Chunk]:
    """``mergeChunks``: fold chunks too small to treat separately into
    their nearest (by class distance) surviving neighbor.

    A single remaining chunk is never merged away; order and class
    labels of survivors are preserved.
    """
    if dataset_total < 0:
        raise ValueError("dataset_total must be >= 0")
    survivors = list(chunks)

    def undersized(chunk: Chunk) -> bool:
        small_count = chunk.file_count < policy.min_files
        small_bytes = (
            dataset_total > 0
            and chunk.total_size < policy.min_bytes_fraction * dataset_total
        )
        return small_count and small_bytes if policy.min_files else small_bytes

    changed = True
    while changed and len(survivors) > 1:
        changed = False
        for i, chunk in enumerate(survivors):
            if not undersized(chunk):
                continue
            neighbors = [j for j in range(len(survivors)) if j != i]
            target = min(
                neighbors,
                key=lambda j: (
                    abs(int(survivors[j].chunk_class) - int(chunk.chunk_class)),
                    -survivors[j].total_size,
                ),
            )
            merged = Chunk(
                chunk_class=survivors[target].chunk_class,
                files=survivors[target].files + chunk.files,
            )
            survivors[target] = merged
            del survivors[i]
            changed = True
            break
    return survivors


def ceil_div_positive(numerator: float, denominator: float) -> int:
    """``ceil(numerator / denominator)`` floored at 1 — the paper's
    parameter formulas never go below one."""
    if denominator <= 0:
        return 1
    return max(1, math.ceil(numerator / denominator))
