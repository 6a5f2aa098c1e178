"""Dataset containers and generators."""

import pytest

from repro import units
from repro.datasets.files import Dataset, FileInfo
from repro.datasets.generators import (
    SizeBand,
    banded_dataset,
    large_files_dataset,
    log_uniform_dataset,
    lognormal_dataset,
    paper_dataset_10g,
    paper_dataset_1g,
    small_files_dataset,
    uniform_dataset,
)


class TestFileInfo:
    def test_basic(self):
        f = FileInfo("a.dat", 100)
        assert f.name == "a.dat"
        assert f.size == 100

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FileInfo("bad", -1)

    def test_zero_size_allowed(self):
        assert FileInfo("empty", 0).size == 0

    def test_frozen(self):
        f = FileInfo("a", 1)
        with pytest.raises(Exception):
            f.size = 2


class TestDataset:
    def test_stats(self):
        ds = Dataset([FileInfo("a", 10), FileInfo("b", 30)])
        assert ds.total_size == 40
        assert ds.file_count == 2
        assert ds.average_file_size == 20
        assert ds.min_file_size == 10
        assert ds.max_file_size == 30

    def test_empty_dataset(self):
        ds = Dataset([])
        assert ds.total_size == 0
        assert ds.average_file_size == 0.0
        assert ds.min_file_size == 0
        assert ds.max_file_size == 0
        assert len(ds) == 0

    def test_iteration_and_indexing(self):
        files = [FileInfo(f"f{i}", i + 1) for i in range(5)]
        ds = Dataset(files)
        assert list(ds) == files
        assert ds[2] == files[2]

    def test_sorted_by_size(self):
        ds = Dataset([FileInfo("big", 100), FileInfo("small", 1), FileInfo("mid", 50)])
        ordered = ds.sorted_by_size()
        assert [f.size for f in ordered] == [1, 50, 100]

    def test_from_sizes_generates_names(self):
        ds = Dataset.from_sizes([5, 6, 7], prefix="x")
        assert ds.file_count == 3
        assert len({f.name for f in ds}) == 3
        assert all(f.name.startswith("x") for f in ds)

    @pytest.mark.parametrize("count", [1, 10, 11, 100, 101])
    @pytest.mark.parametrize("prefix", ["file", "part-"])
    def test_from_sizes_names_match_the_padded_format(self, count, prefix):
        """Cached names equal the zero-padded f-string at every width
        boundary, and same-shaped datasets share the name strings."""
        width = len(str(count - 1))
        expected = [f"{prefix}{i:0{width}d}" for i in range(count)]
        first = Dataset.from_sizes(list(range(count)), prefix=prefix)
        again = Dataset.from_sizes([7] * count, prefix=prefix)
        assert [f.name for f in first] == expected == [f.name for f in again]
        assert all(a.name is b.name for a, b in zip(first, again))
        assert [f.size for f in first] == list(range(count))

    def test_describe_mentions_count(self):
        ds = Dataset.from_sizes([units.MB] * 3, name="tiny")
        assert "3 files" in ds.describe()
        assert "tiny" in ds.describe()


class TestUniformDataset:
    def test_counts_and_sizes(self):
        ds = uniform_dataset(10, 512)
        assert ds.file_count == 10
        assert all(f.size == 512 for f in ds)

    def test_zero_files(self):
        assert uniform_dataset(0, 512).file_count == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_dataset(-1, 512)


class TestLogUniformDataset:
    def test_total_size_exact(self):
        ds = log_uniform_dataset(100 * units.MB, units.MB, 10 * units.MB, seed=1)
        assert ds.total_size == 100 * units.MB

    def test_sizes_in_range(self):
        ds = log_uniform_dataset(200 * units.MB, units.MB, 20 * units.MB, seed=2)
        # rescaling can push sizes slightly past the nominal max
        assert ds.min_file_size >= units.MB
        assert ds.max_file_size <= 40 * units.MB

    def test_deterministic_given_seed(self):
        a = log_uniform_dataset(50 * units.MB, units.MB, 5 * units.MB, seed=7)
        b = log_uniform_dataset(50 * units.MB, units.MB, 5 * units.MB, seed=7)
        assert [f.size for f in a] == [f.size for f in b]

    def test_different_seeds_differ(self):
        a = log_uniform_dataset(50 * units.MB, units.MB, 5 * units.MB, seed=1)
        b = log_uniform_dataset(50 * units.MB, units.MB, 5 * units.MB, seed=2)
        assert [f.size for f in a] != [f.size for f in b]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            log_uniform_dataset(10 * units.MB, 5 * units.MB, units.MB)

    def test_total_smaller_than_max_rejected(self):
        with pytest.raises(ValueError):
            log_uniform_dataset(units.MB, units.KB, 10 * units.MB)


class TestBandedDataset:
    BANDS = (
        SizeBand(0.5, units.MB, 10 * units.MB),
        SizeBand(0.5, 10 * units.MB, 100 * units.MB),
    )

    def test_total_exact(self):
        ds = banded_dataset(units.GB, self.BANDS, seed=3)
        assert ds.total_size == units.GB

    def test_band_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            banded_dataset(units.GB, (SizeBand(0.4, 1, 10),))

    def test_band_byte_split_approximate(self):
        ds = banded_dataset(units.GB, self.BANDS, seed=3)
        small_bytes = sum(f.size for f in ds if f.size < 10 * units.MB)
        assert small_bytes == pytest.approx(0.5 * units.GB, rel=0.15)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            SizeBand(0.0, 1, 10)
        with pytest.raises(ValueError):
            SizeBand(0.5, 10, 1)


class TestPaperDatasets:
    def test_10g_spec(self):
        ds = paper_dataset_10g()
        assert ds.total_size == 160 * units.GB
        assert ds.min_file_size >= 1 * units.MB
        assert ds.max_file_size <= 30 * units.GB

    def test_1g_spec(self):
        ds = paper_dataset_1g()
        assert ds.total_size == 40 * units.GB
        assert ds.max_file_size <= 8 * units.GB

    def test_deterministic(self):
        assert [f.size for f in paper_dataset_10g()] == [f.size for f in paper_dataset_10g()]

    def test_spans_all_chunk_classes_on_xsede(self):
        # the 10G dataset must exercise small, medium and large chunks
        # relative to the 50 MB XSEDE BDP
        ds = paper_dataset_10g()
        bdp = 50 * units.MB
        small = sum(f.size for f in ds if f.size < bdp)
        large = sum(f.size for f in ds if f.size >= 20 * bdp)
        assert small > 0.1 * ds.total_size
        assert large > 0.1 * ds.total_size


class TestConvenienceDatasets:
    def test_small_files(self):
        ds = small_files_dataset(total_size=10 * units.MB, file_size=units.MB)
        assert ds.file_count == 10

    def test_large_files(self):
        ds = large_files_dataset(total_size=8 * units.GB, file_size=4 * units.GB)
        assert ds.file_count == 2

    def test_lognormal(self):
        ds = lognormal_dataset(100, 10 * units.MB, seed=1)
        assert ds.file_count == 100
        assert ds.min_file_size >= 1
