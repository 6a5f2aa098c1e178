"""Network-device energy integrated over real transfer dynamics.

Section 4 argues about *rates*: under a sub-linear device power model a
faster transfer costs the network less energy, under a linear model the
total is rate-invariant. The per-packet accounting (Eq. 5) captures the
linear case; this module closes the loop for all three models by
integrating device power over an actual engine trace::

    E_device = sum_steps P_dynamic(u(t)) * dt,   u(t) = throughput(t) / line rate

so a transfer's time-varying throughput (ramp-up, adaptation phases,
drain tails) is reflected in the infrastructure's bill.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.netenergy.models import DynamicPowerModel
from repro.netenergy.topology import NetworkTopology
from repro.netsim.engine import StepRecord

__all__ = ["DeviceEnergyBreakdown", "integrate_device_energy", "integrate_path_energy"]


@dataclass(frozen=True)
class DeviceEnergyBreakdown:
    """Energy of one device over one transfer trace."""

    device_name: str
    dynamic_joules: float
    idle_joules: float

    @property
    def total_joules(self) -> float:
        return self.dynamic_joules + self.idle_joules


def integrate_device_energy(
    trace: Sequence[StepRecord],
    model: DynamicPowerModel,
    line_rate: float,
    *,
    dt: float,
    include_idle: bool = False,
) -> float:
    """Dynamic (optionally + idle) joules of one device over ``trace``.

    ``line_rate`` is the device's port rate in bytes/s; utilization is
    clamped at 1.0 (bursts above line rate are an artifact of fluid
    stepping).
    """
    if line_rate <= 0:
        raise ValueError("line_rate must be > 0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    dynamic = 0.0
    for record in trace:
        utilization = min(1.0, max(0.0, record.throughput / line_rate))
        dynamic += model.dynamic_power(utilization) * dt
    if include_idle:
        dynamic += model.idle_watts * len(trace) * dt
    return dynamic


def integrate_path_energy(
    trace: Sequence[StepRecord],
    topology: NetworkTopology,
    model_factory,
    line_rate: float,
    *,
    dt: float,
    include_idle: bool = False,
) -> list[DeviceEnergyBreakdown]:
    """Per-device energy along a topology's transfer path.

    ``model_factory(device)`` builds a :class:`DynamicPowerModel` for
    each Table 1 :class:`~repro.netenergy.devices.DeviceType` — e.g.
    scaling ``max_dynamic_watts`` with the device's per-packet cost so
    routers dominate switches, as they do in the paper's Figure 10.
    """
    breakdowns = []
    for node, device in topology.devices:
        model = model_factory(device)
        dynamic = integrate_device_energy(
            trace, model, line_rate, dt=dt, include_idle=False
        )
        idle = model.idle_watts * len(trace) * dt if include_idle else 0.0
        breakdowns.append(
            DeviceEnergyBreakdown(
                device_name=node, dynamic_joules=dynamic, idle_joules=idle
            )
        )
    return breakdowns
