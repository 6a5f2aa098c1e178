"""File and dataset containers.

A *dataset* in the paper is simply a directory of files of mixed sizes
queued for transfer. The transfer algorithms only ever look at file
sizes (never contents), so :class:`FileInfo` carries a name and a size
and :class:`Dataset` provides the aggregate statistics the algorithms
consume (total size, count, average file size).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from collections.abc import Iterable, Iterator, Sequence

from repro import units

__all__ = ["FileInfo", "Dataset"]


@dataclass(frozen=True, slots=True)
class FileInfo:
    """A single transferable file: a name and a size in bytes."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file size must be >= 0, got {self.size}")


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of files queued for one transfer job."""

    files: tuple[FileInfo, ...]
    name: str = "dataset"

    def __init__(self, files: Iterable[FileInfo], name: str = "dataset") -> None:
        object.__setattr__(self, "files", tuple(files))
        object.__setattr__(self, "name", name)

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self) -> Iterator[FileInfo]:
        return iter(self.files)

    def __getitem__(self, index: int) -> FileInfo:
        return self.files[index]

    @cached_property
    def total_size(self) -> int:
        """Sum of all file sizes in bytes (computed once: the dataset
        is frozen)."""
        return sum(f.size for f in self.files)

    @property
    def file_count(self) -> int:
        return len(self.files)

    @property
    def average_file_size(self) -> float:
        """Mean file size in bytes (0.0 for an empty dataset)."""
        if not self.files:
            return 0.0
        return self.total_size / len(self.files)

    @property
    def min_file_size(self) -> int:
        if not self.files:
            return 0
        return min(f.size for f in self.files)

    @property
    def max_file_size(self) -> int:
        if not self.files:
            return 0
        return max(f.size for f in self.files)

    def sorted_by_size(self) -> "Dataset":
        """A copy with files ordered smallest-first (stable)."""
        return Dataset(sorted(self.files, key=lambda f: (f.size, f.name)), name=self.name)

    def describe(self) -> str:
        """One-line human-readable summary used by the harness."""
        return (
            f"{self.name}: {self.file_count} files, "
            f"{units.to_GB(self.total_size):.2f} GB total, "
            f"sizes {units.to_MB(self.min_file_size):.1f}-"
            f"{units.to_MB(self.max_file_size):.1f} MB, "
            f"avg {units.to_MB(self.average_file_size):.1f} MB"
        )

    @staticmethod
    def from_sizes(sizes: Sequence[int], name: str = "dataset", prefix: str = "file") -> "Dataset":
        """Build a dataset from raw sizes; names are generated
        (``file0`` … ``file9``, ``file00`` … ``file10``, …)."""
        return Dataset(
            (FileInfo(n, int(s)) for n, s in zip(_file_names(prefix, len(sizes)), sizes)),
            name=name,
        )


@lru_cache(maxsize=256)
def _file_names(prefix: str, count: int) -> tuple[str, ...]:
    """The generated names of a ``count``-file dataset, zero-padded to
    the width of the largest index. Cached so that the many same-sized
    datasets of a service day share one set of strings; the names are
    a pure function of the key, so the cache changes no output."""
    width = max(1, len(str(max(count - 1, 0))))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))
