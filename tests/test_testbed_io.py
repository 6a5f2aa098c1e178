"""Testbed JSON (de)serialization and CLI integration."""

import json
import math

import pytest

from repro import units
from repro.cli import main
from repro.netsim.disk import ParallelDisk, PowerLawDisk, SingleDisk
from repro.testbeds import XSEDE
from repro.testbeds.io import load_testbed, save_testbed
from repro.testbeds.io import testbed_from_dict as build_testbed
from repro.testbeds.io import testbed_to_dict as dump_testbed


def minimal_definition(**overrides) -> dict:
    base = {
        "name": "MyLab",
        "path": {"bandwidth_gbps": 40, "rtt_ms": 12, "tcp_buffer_mb": 64},
        "server": {
            "cores": 16,
            "tdp_watts": 150,
            "nic_gbps": 40,
            "per_channel_rate_mbytes": 300,
            "core_rate_mbytes": 800,
            "disk": {"type": "parallel", "per_accessor_mbytes": 400, "array_mbytes": 3000},
        },
        "server_count": 2,
        "dataset": {"type": "uniform", "file_count": 10, "file_mb": 100},
    }
    base.update(overrides)
    return base


class TestFromDict:
    def test_minimal(self):
        tb = build_testbed(minimal_definition())
        assert tb.name == "MyLab"
        assert tb.path.bandwidth == pytest.approx(units.gbps(40))
        assert tb.path.rtt == pytest.approx(units.ms(12))
        assert tb.source.server.cores == 16
        assert tb.source.server_count == 2
        assert isinstance(tb.source.server.disk, ParallelDisk)

    def test_dataset_built(self):
        tb = build_testbed(minimal_definition())
        ds = tb.dataset()
        assert ds.file_count == 10
        assert ds.total_size == 10 * 100 * units.MB

    def test_preset_dataset(self):
        data = minimal_definition(dataset={"type": "preset", "name": "genomics"})
        tb = build_testbed(data)
        assert tb.dataset().file_count > 0

    def test_banded_dataset(self):
        data = minimal_definition(
            dataset={
                "type": "banded",
                "total_gb": 1,
                "bands": [
                    {"fraction": 0.5, "min_mb": 1, "max_mb": 10},
                    {"fraction": 0.5, "min_mb": 10, "max_mb": 100},
                ],
            }
        )
        assert build_testbed(data).dataset().total_size == units.GB

    @pytest.mark.parametrize(
        "disk,cls",
        [
            ({"type": "single", "peak_mbytes": 74}, SingleDisk),
            ({"type": "powerlaw", "single_mbytes": 60, "exponent": 0.2}, PowerLawDisk),
        ],
    )
    def test_disk_types(self, disk, cls):
        data = minimal_definition()
        data["server"]["disk"] = disk
        assert isinstance(build_testbed(data).source.server.disk, cls)

    def test_unknown_disk_type(self):
        data = minimal_definition()
        data["server"]["disk"] = {"type": "quantum"}
        with pytest.raises(ValueError, match="unknown disk type"):
            build_testbed(data)

    def test_unknown_dataset_type(self):
        with pytest.raises(ValueError, match="unknown dataset type"):
            build_testbed(minimal_definition(dataset={"type": "mystery"}))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_testbed(
                minimal_definition(dataset={"type": "preset", "name": "nope"})
            )


class TestRoundTrip:
    def test_builtin_testbed_round_trips(self):
        data = dump_testbed(XSEDE)
        rebuilt = build_testbed(data)
        assert rebuilt.path.bandwidth == pytest.approx(XSEDE.path.bandwidth)
        assert rebuilt.path.rtt == pytest.approx(XSEDE.path.rtt)
        assert rebuilt.source.server.cores == XSEDE.source.server.cores
        assert rebuilt.source.server_count == XSEDE.source.server_count
        assert rebuilt.coefficients.scale == XSEDE.coefficients.scale
        assert type(rebuilt.source.server.disk) is type(XSEDE.source.server.disk)

    def test_file_round_trip(self, tmp_path):
        path = save_testbed(XSEDE, tmp_path / "xsede.json")
        rebuilt = load_testbed(path)
        assert rebuilt.name == "XSEDE"
        assert rebuilt.engine_dt == XSEDE.engine_dt


class TestCliIntegration:
    def test_transfer_on_json_testbed(self, tmp_path, capsys):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps(minimal_definition()))
        assert main(["transfer", "-t", str(path), "-a", "MinE", "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "MyLab" in out

    def test_advise_on_json_testbed(self, tmp_path, capsys):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps(minimal_definition()))
        assert main(["advise", "-t", str(path), "-c", "4"]) == 0
        assert "Transfer plan for MyLab" in capsys.readouterr().out


class TestAlgorithmsOnCustomTestbed:
    def test_full_stack_runs(self):
        from repro.harness.runner import run_algorithm

        tb = build_testbed(minimal_definition())
        outcome = run_algorithm(tb, "HTEE", 4)
        assert outcome.bytes_moved == pytest.approx(tb.dataset().total_size)


def _numeric_fields(node, name: str = ""):
    """``(field name, key path)`` of every number in a testbed file, named
    as the loader's errors name them (``path.rtt_ms``,
    ``dataset.bands[0].fraction``, ``concurrency_levels[2]``)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_fields(value, f"{name}.{key}" if name else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_fields(value, f"{name}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield name


#: Testbed files that between them carry every numeric field the loader
#: reads: each disk type and each dataset type that has numbers.
FULL_DEFINITIONS = [
    dump_testbed(XSEDE, {"type": "log_uniform", "total_gb": 10, "min_mb": 10,
                         "max_gb": 1, "seed": 3}),
    {**dump_testbed(XSEDE, {"type": "uniform", "file_count": 10, "file_mb": 100}),
     "server": {**dump_testbed(XSEDE)["server"],
                "disk": {"type": "single", "peak_mbytes": 74, "contention_alpha": 0.1}}},
    {**dump_testbed(XSEDE, {"type": "banded", "total_gb": 1, "bands": [
        {"fraction": 1.0, "min_mb": 1, "max_mb": 10}]}),
     "server": {**dump_testbed(XSEDE)["server"],
                "disk": {"type": "powerlaw", "single_mbytes": 60, "exponent": 0.2}}},
    dump_testbed(XSEDE, {"type": "log_uniform", "total_gb": 10, "min_mb": 10,
                         "max_mb": 900}),
]

#: Each numeric field once, with the first definition that carries it.
NUMERIC_FIELDS = {}
for _definition in FULL_DEFINITIONS:
    for _field in _numeric_fields(_definition):
        NUMERIC_FIELDS.setdefault(_field, _definition)


def _with_value(definition: dict, field: str, value: float) -> dict:
    """A deep copy of ``definition`` with ``field`` set to ``value``."""
    data = json.loads(json.dumps(definition))
    parts = field.replace("[", ".[").split(".")
    node = data
    for part in parts[:-1]:
        node = node[int(part[1:-1])] if part.startswith("[") else node[part]
    last = parts[-1]
    if last.startswith("["):
        node[int(last[1:-1])] = value
    else:
        node[last] = value
    return data


class TestNonFiniteFields:
    """A testbed file may carry ``NaN`` or ``Infinity`` (Python's ``json``
    reads and writes both). Every numeric field is checked at load time,
    so the CLI exits 2 with one line naming the field instead of
    computing with it."""

    @pytest.mark.parametrize("definition", FULL_DEFINITIONS)
    def test_definitions_load(self, definition):
        build_testbed(definition)

    def test_every_section_is_covered(self):
        assert {"path.rtt_ms", "engine_dt", "server.disk.contention_alpha",
                "server.disk.exponent", "dataset.bands[0].fraction",
                "dataset.file_count", "dataset.max_mb", "dataset.seed",
                "coefficients.scale", "concurrency_levels[0]",
                "server_count"} <= set(NUMERIC_FIELDS)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_non_finite_field_exits_2(self, field, value, tmp_path, capsys):
        path = tmp_path / "tb.json"
        path.write_text(json.dumps(_with_value(NUMERIC_FIELDS[field], field, value)))
        assert main(["service", "-t", str(path), "--jobs", "2", "--day", "60"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"cannot load testbed {str(path)!r}: invalid definition "
            f"({field} must be finite, got {value!r})\n"
        )
        assert captured.out == ""
