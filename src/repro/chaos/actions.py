"""Chaos interventions: timed, picklable fault injections.

Each action is a frozen dataclass satisfying the
:class:`repro.service.simulate.Intervention` protocol: a ``time`` (the
simulated second at which it fires), a ``kind`` label (the
``fault_injected`` event's ``fault`` field), and an
``apply(service, sim)`` method that mutates the running
:class:`~repro.service.simulate.ServiceSimulator` /
:class:`~repro.netsim.multi.MultiTransferSimulator` pair and returns a
JSON-safe detail dict.

The fast-path invalidation contract (see ``repro.netsim.multi``)
governs every action here: each one only mutates state that is
*constant between interventions* — link scale, ambient stream count,
server availability windows, the tariff object — and the service
drivers never macro-step or idle-jump across an intervention time.
Both the event-horizon fast path and the fixed-``dt`` grid loop
therefore observe each fault at the identical grid point, keeping
their reports bit-consistent under injection.

Actions must stay picklable (no closures, no open handles):
:class:`~repro.service.fleet.FleetSimulator` replays the same
intervention list on every shard, shipping it through a process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.netsim.multi import MultiTransferSimulator
from repro.service.tariff import TariffTrace
from repro.units import Seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.simulate import ServiceSimulator

__all__ = [
    "LinkScale",
    "AmbientTraffic",
    "ServerOutage",
    "ChannelCut",
    "TariffSwap",
]


def _check(field: str, value: float, *, zero_ok: bool = False) -> None:
    """Reject a ``value`` for ``field`` that is not finite and > 0 (or
    >= 0 with ``zero_ok``): a fleet replays every intervention on every
    shard, and a NaN would reach each one's memo keys."""
    if not (math.isfinite(value) and (value > 0 or (zero_ok and value == 0))):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"{field} must be {bound} and finite, got {value!r}")


def _check_time(time: Seconds) -> None:
    _check("intervention time", time, zero_ok=True)


@dataclass(frozen=True)
class LinkScale:
    """Scale the shared bottleneck link to ``scale`` of its nominal
    capacity (a brownout below 1.0, an upgrade above). ``scale=1.0``
    restores the nominal link.

    With ``bottleneck`` set, only that named hop of the simulator's
    topology is scaled (a targeted brownout — e.g. one dimmed spine) —
    which requires the run to be topology-backed
    (``ServiceSimulator(topology=...)``)."""

    time: Seconds
    scale: float
    bottleneck: Optional[str] = None
    kind: ClassVar[str] = "link_scale"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check("link scale", self.scale)

    def apply(
        self, service: "ServiceSimulator", sim: MultiTransferSimulator
    ) -> dict:
        """Apply the new scale to the whole path, or to one hop."""
        if self.bottleneck is not None:
            capacity = sim.scale_bottleneck(self.bottleneck, self.scale)
            return {
                "scale": self.scale,
                "bottleneck": self.bottleneck,
                "capacity": capacity,
            }
        sim.set_link_scale(self.scale)
        return {"scale": self.scale}


@dataclass(frozen=True)
class AmbientTraffic:
    """Add ``streams`` phantom competing streams to the shared link
    (a background-traffic surge); ``streams=0`` ends the surge."""

    time: Seconds
    streams: float
    kind: ClassVar[str] = "ambient_traffic"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check("ambient streams", self.streams, zero_ok=True)

    def apply(
        self, service: "ServiceSimulator", sim: MultiTransferSimulator
    ) -> dict:
        """Install the phantom stream count on the shared link."""
        sim.set_ambient_streams(self.streams)
        return {"streams": self.streams}


@dataclass(frozen=True)
class ServerOutage:
    """Crash transfer server ``index`` on ``side`` for ``downtime``
    seconds. Running jobs lose that server's channels and reconnect on
    survivors; jobs admitted during the window inherit the remaining
    outage. Refuses to take down a side's last server."""

    time: Seconds
    side: str
    index: int
    downtime: Seconds
    restart_files: bool = False
    kind: ClassVar[str] = "server_outage"

    def __post_init__(self) -> None:
        _check_time(self.time)
        if self.side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        if self.index < 0:
            raise ValueError("server index must be >= 0")
        _check("downtime", self.downtime)

    def apply(
        self, service: "ServiceSimulator", sim: MultiTransferSimulator
    ) -> dict:
        """Crash the server and report how many channels it took down."""
        failed = sim.inject_server_failure(
            self.side, self.index, downtime=self.downtime,
            restart_files=self.restart_files,
        )
        return {
            "side": self.side, "index": self.index,
            "downtime_s": self.downtime, "channels_failed": failed,
        }


@dataclass(frozen=True)
class ChannelCut:
    """Kill up to ``per_job`` open channels of every running job (a
    transport reset storm). With ``restart_file=False`` the in-flight
    file keeps its transferred bytes and resumes mid-file."""

    time: Seconds
    per_job: int = 1
    restart_file: bool = False
    kind: ClassVar[str] = "channel_cut"

    def __post_init__(self) -> None:
        _check_time(self.time)
        if self.per_job < 1:
            raise ValueError("per_job must be >= 1")

    def apply(
        self, service: "ServiceSimulator", sim: MultiTransferSimulator
    ) -> dict:
        """Cut channels across running jobs; returns the count cut."""
        failed = sim.inject_channel_failures(
            per_job=self.per_job, restart_file=self.restart_file
        )
        return {"per_job": self.per_job, "channels_failed": failed}


@dataclass(frozen=True)
class TariffSwap:
    """Replace the service's tariff with ``trace`` from this instant
    on (a price/carbon spike, or its restoration).

    Already-running jobs are re-priced from the swap forward — the
    service integrates cost over plateaus as it goes — while the
    deferral policy sees the new schedule on its next decision.
    """

    time: Seconds
    trace: TariffTrace
    kind: ClassVar[str] = "tariff_swap"

    def __post_init__(self) -> None:
        _check_time(self.time)

    def apply(
        self, service: "ServiceSimulator", sim: MultiTransferSimulator
    ) -> dict:
        """Swap the service's tariff object for ``trace``."""
        service.tariff = self.trace
        return {"tariff": self.trace.name}
