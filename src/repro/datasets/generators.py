"""Synthetic dataset generators.

The paper evaluates on two mixed-size datasets:

* 10 Gbps networks (XSEDE): **160 GB total, file sizes 3 MB - 20 GB**;
* 1 Gbps networks (FutureGrid, DIDCLAB): **40 GB total, 3 MB - 5 MB...**
  (paper text: "3 MB - 5 GB").

The exact file-size histogram is unpublished, so we generate a
log-uniform mix spanning the published range and rescale it to hit the
published total exactly. Log-uniform spreads files across the small /
medium / large chunk classes the algorithms partition on, which is the
property the evaluation depends on. Generation is deterministic given a
seed.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.datasets.files import Dataset

__all__ = [
    "SizeBand",
    "banded_dataset",
    "log_uniform_dataset",
    "uniform_dataset",
    "lognormal_dataset",
    "paper_dataset_10g",
    "paper_dataset_1g",
    "small_files_dataset",
    "large_files_dataset",
]


def log_uniform_dataset(
    total_size: float,
    min_size: float,
    max_size: float,
    *,
    seed: int = 0,
    name: str = "log-uniform",
) -> Dataset:
    """Files log-uniform in [min_size, max_size] summing to ~total_size.

    Sizes are drawn until their sum reaches the target; the final file is
    clipped into range and the whole set rescaled so the sum matches
    ``total_size`` exactly (to the byte, by adjusting the largest file).
    """
    if not (0 < min_size <= max_size):
        raise ValueError(f"need 0 < min_size <= max_size, got {min_size}, {max_size}")
    if total_size < max_size:
        raise ValueError("total_size must be at least max_size")
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    lo, hi = np.log(min_size), np.log(max_size)
    # Draw ``exp(uniform(lo, hi))`` until the running sum reaches the
    # target, as vector draws: a trial draw finds the count (``cumsum``
    # adds left to right, as a one-draw-per-file loop would), then the
    # generator is rewound and draws exactly that many, so the shuffle
    # below starts from the state such a loop leaves.
    mean = (max_size - min_size) / (hi - lo) if hi > lo else min_size
    trial = int(1.25 * total_size / mean) + 16
    while True:
        drawn = np.exp(rng.uniform(lo, hi, size=trial))
        count = int(np.searchsorted(np.cumsum(drawn), total_size)) + 1
        rng.bit_generator.state = start
        if count <= trial:
            break
        trial *= 2
    # Truncate each draw to whole bytes, rescale multiplicatively, then
    # absorb the integer remainder in the largest file so the dataset
    # total is exact.
    arr = np.exp(rng.uniform(lo, hi, size=count)).astype(np.int64).astype(float)
    arr *= total_size / arr.sum()
    arr = np.maximum(arr.astype(np.int64), int(min_size))
    remainder = int(total_size) - int(arr.sum())
    arr[int(np.argmax(arr))] += remainder
    rng.shuffle(arr)
    return Dataset.from_sizes(arr.tolist(), name=name)


def uniform_dataset(
    file_count: int,
    file_size: int,
    *,
    name: str = "uniform",
) -> Dataset:
    """``file_count`` identical files of ``file_size`` bytes."""
    if file_count < 0:
        raise ValueError("file_count must be >= 0")
    return Dataset.from_sizes([file_size] * file_count, name=name)


def lognormal_dataset(
    file_count: int,
    median_size: float,
    sigma: float = 1.0,
    *,
    seed: int = 0,
    name: str = "lognormal",
) -> Dataset:
    """A lognormal file-size mix (typical of scientific repositories)."""
    if file_count < 0:
        raise ValueError("file_count must be >= 0")
    rng = np.random.default_rng(seed)
    sizes = rng.lognormal(mean=np.log(median_size), sigma=sigma, size=file_count)
    return Dataset.from_sizes([max(1, int(s)) for s in sizes], name=name)


from dataclasses import dataclass


@dataclass(frozen=True)
class SizeBand:
    """One size band of a mixed dataset: a byte budget spread over
    files drawn log-uniformly from [min_size, max_size]."""

    bytes_fraction: float
    min_size: float
    max_size: float

    def __post_init__(self) -> None:
        if not (0 < self.bytes_fraction <= 1):
            raise ValueError("bytes_fraction must be in (0, 1]")
        if not (0 < self.min_size <= self.max_size):
            raise ValueError("need 0 < min_size <= max_size")


def banded_dataset(
    total_size: float,
    bands: tuple[SizeBand, ...],
    *,
    seed: int = 0,
    name: str = "banded",
) -> Dataset:
    """A mixed dataset with a controlled byte split across size bands.

    The paper's evaluation datasets were constructed so that the small,
    medium and large chunk classes all carry substantial weight (the
    algorithms' per-chunk tuning is only exercised then). This builder
    allocates ``bytes_fraction`` of the total to each band and fills the
    band with log-uniform file sizes.
    """
    if abs(sum(b.bytes_fraction for b in bands) - 1.0) > 1e-9:
        raise ValueError("band fractions must sum to 1")
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    for band in bands:
        budget = total_size * band.bytes_fraction
        acc = 0.0
        lo, hi = np.log(band.min_size), np.log(band.max_size)
        band_sizes: list[float] = []
        while acc < budget:
            s = float(np.exp(rng.uniform(lo, hi)))
            band_sizes.append(s)
            acc += s
        arr = np.array(band_sizes)
        arr *= budget / arr.sum()
        arr = np.maximum(arr.astype(np.int64), 1)
        sizes.extend(int(v) for v in arr)
    remainder = int(total_size) - sum(sizes)
    sizes[int(np.argmax(sizes))] += remainder
    order = rng.permutation(len(sizes))
    return Dataset.from_sizes([sizes[i] for i in order], name=name)


def paper_dataset_10g(seed: int = 42) -> Dataset:
    """The 10 Gbps evaluation dataset: 160 GB, file sizes 3 MB - 20 GB.

    Byte mass is split across the three chunk classes relative to the
    XSEDE BDP (50 MB) so every class is exercised, matching how the
    paper's mixed dataset stresses all parameter regimes.
    """
    return banded_dataset(
        total_size=160 * units.GB,
        bands=(
            SizeBand(0.25, 3 * units.MB, 50 * units.MB),
            SizeBand(0.35, 50 * units.MB, 1 * units.GB),
            SizeBand(0.40, 1 * units.GB, 20 * units.GB),
        ),
        seed=seed,
        name="paper-10g-160GB",
    )


def paper_dataset_1g(seed: int = 42) -> Dataset:
    """The 1 Gbps evaluation dataset: 40 GB, file sizes 3 MB - 5 GB.

    Banded around the ~3.5 MB BDP of the FutureGrid path: a quarter of
    the bytes in small pipelining-sensitive files, the rest across
    medium and large files up to 5 GB.
    """
    return banded_dataset(
        total_size=40 * units.GB,
        bands=(
            SizeBand(0.25, 3 * units.MB, 20 * units.MB),
            SizeBand(0.35, 20 * units.MB, 500 * units.MB),
            SizeBand(0.40, 500 * units.MB, 5 * units.GB),
        ),
        seed=seed,
        name="paper-1g-40GB",
    )


def small_files_dataset(
    total_size: float = 4 * units.GB,
    file_size: float = 1 * units.MB,
    *,
    name: str = "small-files",
) -> Dataset:
    """A many-small-files workload (the pipelining stress case)."""
    count = max(1, int(total_size // file_size))
    return uniform_dataset(count, int(file_size), name=name)


def large_files_dataset(
    total_size: float = 40 * units.GB,
    file_size: float = 4 * units.GB,
    *,
    name: str = "large-files",
) -> Dataset:
    """A few-huge-files workload (the parallelism stress case)."""
    count = max(1, int(total_size // file_size))
    return uniform_dataset(count, int(file_size), name=name)
