"""Testbed (de)serialization.

Downstream users have their own paths and hosts; this module lets them
describe an environment as JSON instead of code and run every
algorithm, sweep and figure against it::

    {
      "name": "MyLab",
      "path": {"bandwidth_gbps": 40, "rtt_ms": 12, "tcp_buffer_mb": 64},
      "server": {"cores": 16, "tdp_watts": 150, "nic_gbps": 40,
                 "per_channel_rate_mbytes": 300, "core_rate_mbytes": 800,
                 "disk": {"type": "parallel",
                          "per_accessor_mbytes": 400, "array_mbytes": 3000}},
      "server_count": 2,
      "dataset": {"type": "log_uniform", "total_gb": 100,
                  "min_mb": 10, "max_gb": 10}
    }

The CLI accepts a path to such a file anywhere a testbed name is
expected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from collections.abc import Callable

from repro import units
from repro.datasets.files import Dataset
from repro.datasets.generators import SizeBand, banded_dataset, log_uniform_dataset, uniform_dataset
from repro.datasets.presets import WORKLOAD_PRESETS
from repro.netsim.disk import DiskSubsystem, ParallelDisk, PowerLawDisk, SingleDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.link import NetworkPath
from repro.power.coefficients import CoefficientSet
from repro.testbeds.specs import Testbed

__all__ = ["testbed_from_dict", "testbed_to_dict", "load_testbed", "save_testbed"]


# ----------------------------------------------------------------------
# numbers
# ----------------------------------------------------------------------

def _finite(raw, field: str) -> float:
    """``raw`` as a finite float. JSON carries ``NaN`` and ``Infinity``,
    and a non-finite rate or delay would only fail later, inside a run,
    so the ``ValueError`` names the ``field`` instead."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {raw!r}")
    return value


def _numbers(section: dict, where: str) -> Callable[..., float]:
    """A reader of ``section``'s numeric fields through :func:`_finite`,
    named ``where.key``: ``read(key)`` for a required one (``KeyError``
    if absent), ``read(key, default)`` for an optional one."""

    def read(key: str, default: float | None = None) -> float:
        raw = section[key] if default is None else section.get(key, default)
        return _finite(raw, f"{where}.{key}" if where else key)

    return read


# ----------------------------------------------------------------------
# disks
# ----------------------------------------------------------------------

def _disk_from_dict(data: dict) -> DiskSubsystem:
    kind = data.get("type")
    read = _numbers(data, "server.disk")
    if kind == "single":
        return SingleDisk(
            peak_rate=read("peak_mbytes") * units.MB,
            contention_alpha=read("contention_alpha", 0.12),
        )
    if kind == "parallel":
        return ParallelDisk(
            per_accessor_rate=read("per_accessor_mbytes") * units.MB,
            array_rate=read("array_mbytes") * units.MB,
        )
    if kind == "powerlaw":
        return PowerLawDisk(
            single_rate=read("single_mbytes") * units.MB,
            exponent=read("exponent"),
        )
    raise ValueError(f"unknown disk type {kind!r}; known: single, parallel, powerlaw")


def _disk_to_dict(disk: DiskSubsystem) -> dict:
    if isinstance(disk, SingleDisk):
        return {
            "type": "single",
            "peak_mbytes": disk.peak_rate / units.MB,
            "contention_alpha": disk.contention_alpha,
        }
    if isinstance(disk, ParallelDisk):
        return {
            "type": "parallel",
            "per_accessor_mbytes": disk.per_accessor_rate / units.MB,
            "array_mbytes": disk.array_rate / units.MB,
        }
    if isinstance(disk, PowerLawDisk):
        return {
            "type": "powerlaw",
            "single_mbytes": disk.single_rate / units.MB,
            "exponent": disk.exponent,
        }
    raise ValueError(f"cannot serialize disk type {type(disk).__name__}")


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

def _dataset_factory_from_dict(data: dict) -> Callable[[], Dataset]:
    """The dataset factory a ``dataset`` section describes; its numbers
    are read (and checked) now, not when the factory first runs."""
    kind = data.get("type")
    read = _numbers(data, "dataset")
    seed = int(read("seed", 0))
    if kind == "log_uniform":
        total = read("total_gb") * units.GB
        lo = read("min_mb") * units.MB
        hi = read("max_gb") * units.GB if "max_gb" in data else read("max_mb") * units.MB
        return lambda: log_uniform_dataset(total, lo, hi, seed=seed)
    if kind == "uniform":
        count = int(read("file_count"))
        size = int(read("file_mb") * units.MB)
        return lambda: uniform_dataset(count, size)
    if kind == "banded":
        total = read("total_gb") * units.GB
        bands = []
        for i, band in enumerate(data["bands"]):
            read_band = _numbers(band, f"dataset.bands[{i}]")
            bands.append(SizeBand(
                read_band("fraction"), read_band("min_mb") * units.MB,
                read_band("max_mb") * units.MB,
            ))
        return lambda: banded_dataset(total, tuple(bands), seed=seed)
    if kind == "preset":
        name = data["name"]
        if name not in WORKLOAD_PRESETS:
            raise ValueError(f"unknown preset {name!r}; known: {sorted(WORKLOAD_PRESETS)}")
        return WORKLOAD_PRESETS[name]
    raise ValueError(
        f"unknown dataset type {kind!r}; known: log_uniform, uniform, banded, preset"
    )


# ----------------------------------------------------------------------
# testbeds
# ----------------------------------------------------------------------

def testbed_from_dict(data: dict) -> Testbed:
    """Build a :class:`Testbed` from a plain dict (see module docs)."""
    read = _numbers(data, "")
    read_path = _numbers(data["path"], "path")
    path = NetworkPath(
        bandwidth=read_path("bandwidth_gbps") * units.gbps(1),
        rtt=units.ms(read_path("rtt_ms")),
        tcp_buffer=read_path("tcp_buffer_mb") * units.MB,
        protocol_efficiency=read_path("protocol_efficiency", 0.93),
        congestion_knee=int(read_path("congestion_knee", 24)),
        congestion_slope=read_path("congestion_slope", 0.01),
    )
    server_data = data["server"]
    read_server = _numbers(server_data, "server")
    server = ServerSpec(
        name=server_data.get("name", f"{data['name']}-server"),
        cores=int(read_server("cores")),
        tdp_watts=read_server("tdp_watts"),
        nic_rate=read_server("nic_gbps") * units.gbps(1),
        disk=_disk_from_dict(server_data["disk"]),
        per_channel_rate=read_server("per_channel_rate_mbytes") * units.MB,
        core_rate=read_server("core_rate_mbytes") * units.MB,
        channel_cpu_overhead=read_server("channel_cpu_overhead", 0.05),
        stream_cpu_overhead=read_server("stream_cpu_overhead", 0.02),
        active_overhead=read_server("active_overhead", 0.10),
        thrash_factor=read_server("thrash_factor", 0.15),
        per_file_overhead=read_server("per_file_overhead", 0.01),
    )
    count = int(read("server_count", 1))
    read_coeff = _numbers(data.get("coefficients", {}), "coefficients")
    coefficients = CoefficientSet(
        memory=read_coeff("memory", 0.01),
        disk=read_coeff("disk", 0.08),
        nic=read_coeff("nic", 0.05),
        scale=read_coeff("scale", 1.0),
    )
    levels = data.get("concurrency_levels", (1, 2, 4, 6, 8, 10, 12))
    return Testbed(
        name=str(data["name"]),
        path=path,
        source=EndSystem(f"{data['name']}-src", server, count),
        destination=EndSystem(f"{data['name']}-dst", server, count),
        coefficients=coefficients,
        dataset_factory=_dataset_factory_from_dict(
            data.get("dataset", {"type": "log_uniform", "total_gb": 10,
                                 "min_mb": 10, "max_gb": 1})
        ),
        concurrency_levels=tuple(
            int(_finite(level, f"concurrency_levels[{i}]"))
            for i, level in enumerate(levels)
        ),
        brute_force_max_concurrency=int(read("brute_force_max_concurrency", 20)),
        sla_reference_concurrency=int(read("sla_reference_concurrency", 12)),
        engine_dt=read("engine_dt", 0.25),
    )


def testbed_to_dict(testbed: Testbed, dataset: dict | None = None) -> dict:
    """Serialize a testbed's hardware (the dataset spec, which is a
    factory function, must be supplied as a dict or is emitted as a
    generic placeholder)."""
    server = testbed.source.server
    return {
        "name": testbed.name,
        "path": {
            "bandwidth_gbps": units.to_gbps(testbed.path.bandwidth),
            "rtt_ms": units.to_ms(testbed.path.rtt),
            "tcp_buffer_mb": testbed.path.tcp_buffer / units.MB,
            "protocol_efficiency": testbed.path.protocol_efficiency,
            "congestion_knee": testbed.path.congestion_knee,
            "congestion_slope": testbed.path.congestion_slope,
        },
        "server": {
            "name": server.name,
            "cores": server.cores,
            "tdp_watts": server.tdp_watts,
            "nic_gbps": units.to_gbps(server.nic_rate),
            "disk": _disk_to_dict(server.disk),
            "per_channel_rate_mbytes": server.per_channel_rate / units.MB,
            "core_rate_mbytes": server.core_rate / units.MB,
            "channel_cpu_overhead": server.channel_cpu_overhead,
            "stream_cpu_overhead": server.stream_cpu_overhead,
            "active_overhead": server.active_overhead,
            "thrash_factor": server.thrash_factor,
            "per_file_overhead": server.per_file_overhead,
        },
        "server_count": testbed.source.server_count,
        "coefficients": {
            "memory": testbed.coefficients.memory,
            "disk": testbed.coefficients.disk,
            "nic": testbed.coefficients.nic,
            "scale": testbed.coefficients.scale,
        },
        "dataset": dataset
        or {"type": "log_uniform", "total_gb": 10, "min_mb": 10, "max_gb": 1},
        "concurrency_levels": list(testbed.concurrency_levels),
        "brute_force_max_concurrency": testbed.brute_force_max_concurrency,
        "sla_reference_concurrency": testbed.sla_reference_concurrency,
        "engine_dt": testbed.engine_dt,
    }


def load_testbed(path: Path | str) -> Testbed:
    """Load a testbed definition from a JSON file."""
    return testbed_from_dict(json.loads(Path(path).read_text()))


def save_testbed(testbed: Testbed, path: Path | str, dataset: dict | None = None) -> Path:
    """Write a testbed definition to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(testbed_to_dict(testbed, dataset), indent=2) + "\n")
    return path
