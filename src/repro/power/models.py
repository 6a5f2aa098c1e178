"""End-system power models (Section 2.2).

Two models, mirroring the two access-privilege cases of the paper:

* :class:`FineGrainedPowerModel` — Eq. 1: needs utilization of all four
  components (CPU, memory, disk, NIC). Lowest error (<6% in the paper's
  validation).
* :class:`CpuTdpPowerModel` — Eq. 3: needs only CPU utilization, and
  ports across machines by scaling with the ratio of CPU Thermal Design
  Power values. 2-3% worse than fine-grained when extended to a foreign
  server, still <8% in the paper's validation.

Both satisfy the :data:`repro.netsim.engine.PowerFn` protocol so they
plug straight into the transfer engine. The fine-grained model also
hands the engine a :data:`~repro.netsim.engine.PowerKernel` per busy
server configuration (:meth:`FineGrainedPowerModel.power_kernel`), so a
step costs only the throughput-dependent arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.endpoint import ServerSpec
from repro.netsim.engine import PowerKernel
from repro.netsim.utilization import Utilization
from repro.power.coefficients import PAPER_COEFFICIENTS, CoefficientSet

__all__ = ["FineGrainedPowerModel", "CpuTdpPowerModel"]


@dataclass(frozen=True)
class FineGrainedPowerModel:
    """Eq. 1: ``P_t = C_cpu,n u_cpu + C_mem u_mem + C_disk u_disk + C_nic u_nic``.

    ``u_cpu`` is total CPU percent summed over cores (``top``
    convention); the per-core coefficient comes from Eq. 2 with the
    server's active core count.
    """

    coefficients: CoefficientSet = PAPER_COEFFICIENTS

    def power_components(self, spec: ServerSpec, util: Utilization) -> dict[str, float]:
        """Per-component watts — the Eq. 1 terms individually.

        Keys: ``cpu``, ``memory``, ``disk``, ``nic``. This is the
        fine-grained model's raison d'etre: attributing the bill to
        the component that ran it up.
        """
        if util.is_idle:
            return {"cpu": 0.0, "memory": 0.0, "disk": 0.0, "nic": 0.0}
        coeff = self.coefficients
        return {
            "cpu": coeff.scale * coeff.cpu(util.active_cores) * util.cpu_pct,
            "memory": coeff.scale * coeff.memory * util.mem_pct,
            "disk": coeff.scale * coeff.disk * util.disk_pct,
            "nic": coeff.scale * coeff.nic * util.nic_pct,
        }

    def power(self, spec: ServerSpec, util: Utilization) -> float:
        """Load-dependent watts for one server at one utilization point."""
        return max(0.0, sum(self.power_components(spec, util).values()))

    def power_kernel(self, spec: ServerSpec, channels: int, streams: int) -> PowerKernel:
        """:meth:`power` and :meth:`power_components` of
        ``compute_utilization(spec, channels, streams, throughput)`` as
        one function of ``throughput``, for a busy server
        (``channels >= 1``).

        Everything but throughput — Eq. 2 at the active core count,
        the scaled coefficients, overhead cores, the thrash multiplier,
        the ``100*cores`` clamp and the disk capacity — is computed
        once here. The kernel repeats the remaining operations in the
        same order and sums the terms with the same ``sum`` call as
        :meth:`power` (Python 3.12's ``sum`` compensates float sums),
        so its results are bit-identical to the two methods.
        """
        if channels < 1:
            raise ValueError(f"a power kernel needs channels >= 1, got {channels}")
        if streams < channels:
            raise ValueError(f"streams ({streams}) cannot be < channels ({channels})")
        coeff = self.coefficients
        scale = coeff.scale
        k_cpu = scale * coeff.cpu(min(spec.cores, channels))
        k_mem = scale * coeff.memory
        k_disk = scale * coeff.disk
        k_nic = scale * coeff.nic
        core_rate = spec.core_rate
        # x * 1.0 is exact, so the unthrashed case needs no branch
        thrash = (
            1.0 + spec.thrash_factor * (channels - spec.cores) / spec.cores
            if channels > spec.cores
            else 1.0
        )
        overhead_cores = (
            spec.active_overhead
            + spec.channel_cpu_overhead * channels
            + spec.stream_cpu_overhead * streams
        )
        cpu_cap = 100.0 * spec.cores
        mem_rate = spec.mem_rate
        nic_rate = spec.nic_rate
        disk_capacity = spec.disk.aggregate_capacity(channels)
        has_disk = disk_capacity > 0

        def kernel(throughput: float) -> tuple[float, float, float, float, float]:
            if throughput < 0:
                raise ValueError("throughput must be >= 0")
            # `if not x < cap: x = cap` is `min(cap, x)` bit for bit (NaN too)
            cpu_pct = 100.0 * (throughput / core_rate * thrash + overhead_cores)
            if not cpu_pct < cpu_cap:
                cpu_pct = cpu_cap
            mem_pct = 100.0 * throughput / mem_rate
            if not mem_pct < 100.0:
                mem_pct = 100.0
            if has_disk:
                disk_pct = 100.0 * throughput / disk_capacity
                if not disk_pct < 100.0:
                    disk_pct = 100.0
            else:
                disk_pct = 0.0
            nic_pct = 100.0 * throughput / nic_rate
            if not nic_pct < 100.0:
                nic_pct = 100.0
            cpu = k_cpu * cpu_pct
            memory = k_mem * mem_pct
            disk = k_disk * disk_pct
            nic = k_nic * nic_pct
            total = sum((cpu, memory, disk, nic))
            return (total if total > 0.0 else 0.0), cpu, memory, disk, nic

        return kernel

    # PowerFn protocol
    __call__ = power


@dataclass(frozen=True)
class CpuTdpPowerModel:
    """Eq. 3: ``P_t = (C_cpu,n u_cpu) * TDP_remote / TDP_local``.

    ``local_tdp_watts`` identifies the server the coefficients were
    fitted on; a transfer node with a beefier (or weaker) CPU is scaled
    by its nameplate TDP ratio. ``cpu_share`` inflates the CPU-only
    estimate to approximate full-system power, since the paper's
    regression found CPU utilization explains ~89.7% of consumed power.
    """

    local_tdp_watts: float
    coefficients: CoefficientSet = PAPER_COEFFICIENTS
    cpu_share: float = 0.897

    def __post_init__(self) -> None:
        if self.local_tdp_watts <= 0:
            raise ValueError("local_tdp_watts must be > 0")
        if not (0 < self.cpu_share <= 1):
            raise ValueError("cpu_share must be in (0, 1]")

    def power(self, spec: ServerSpec, util: Utilization) -> float:
        """Eq. 3 watts: CPU-only estimate scaled by the TDP ratio and
        inflated to full-system power by ``cpu_share``."""
        if util.is_idle:
            return 0.0
        coeff = self.coefficients
        cpu_watts = coeff.cpu(util.active_cores) * util.cpu_pct
        tdp_ratio = spec.tdp_watts / self.local_tdp_watts
        return coeff.scale * max(0.0, cpu_watts) * tdp_ratio / self.cpu_share

    __call__ = power
