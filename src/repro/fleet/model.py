"""Provider-scale energy and cost projection.

The paper's motivation is economic: world-wide data movement burns an
estimated 450 TWh / ~90 billion USD per year, and "the service
providers can possibly offer low-cost data transfer options to their
customers in return for delayed transfers". This module turns one
measured transfer into fleet-scale numbers: a provider runs a daily mix
of transfer jobs on a path; choosing an energy-aware policy instead of
a throughput-first one changes the annual kWh, dollars and CO2.

Everything is computed from actual simulated runs (one per distinct
job class and policy — results are cached, the jobs are deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Optional

from repro.core.baselines import ProMCAlgorithm
from repro.core.htee import HTEEAlgorithm
from repro.core.mine import MinEAlgorithm
from repro.core.scheduler import TransferOutcome
from repro.core.slaee import SLAEEAlgorithm
from repro.datasets.files import Dataset
from repro.service.tariff import JOULES_PER_KWH, TariffTrace
from repro.testbeds.specs import Testbed

__all__ = [
    "TariffModel",
    "JobClass",
    "PolicyReport",
    "FleetModel",
    "WORLD_TRANSFER_TWH_PER_YEAR",
    "global_projection_twh",
]

#: The paper's Introduction: "The annual electricity consumed by these
#: data transfers worldwide is estimated to be 450 Terawatt hours".
WORLD_TRANSFER_TWH_PER_YEAR = 450.0

_DAYS_PER_YEAR = 365


@dataclass(frozen=True)
class TariffModel:
    """Electricity price and carbon intensity of the provider's grid.

    By default the grid is flat: every joule costs
    ``dollars_per_kwh`` regardless of the hour. Attach a time-of-use
    ``schedule`` (a :class:`~repro.service.tariff.TariffTrace`) and
    pass ``start`` (+ optionally ``duration``) to :meth:`dollars` /
    :meth:`kg_co2` to price energy at the plateau(s) actually in force
    — the same trace objects the service layer's deferral policies
    hunt windows in. Calls without ``start`` keep the flat behaviour,
    so every pre-schedule caller is unchanged.
    """

    dollars_per_kwh: float = 0.08
    kg_co2_per_kwh: float = 0.37  # US grid average
    schedule: Optional[TariffTrace] = None

    def __post_init__(self) -> None:
        if self.dollars_per_kwh < 0 or self.kg_co2_per_kwh < 0:
            raise ValueError("tariff values must be >= 0")

    @classmethod
    def from_trace(cls, trace: TariffTrace) -> "TariffModel":
        """A TOU tariff whose flat fallback is the trace's time mean."""
        return cls(
            dollars_per_kwh=trace.mean_price,
            kg_co2_per_kwh=trace.mean_carbon,
            schedule=trace,
        )

    def price_at(self, t: float) -> float:
        """$/kWh at absolute time ``t`` (flat rate without a schedule)."""
        if self.schedule is None:
            return self.dollars_per_kwh
        return self.schedule.price_at(t)

    def carbon_at(self, t: float) -> float:
        """kgCO2/kWh at absolute time ``t``."""
        if self.schedule is None:
            return self.kg_co2_per_kwh
        return self.schedule.carbon_at(t)

    def dollars(
        self, joules: float, *, start: Optional[float] = None,
        duration: float = 0.0,
    ) -> float:
        """Electricity cost of ``joules`` at this tariff.

        With a schedule and a ``start`` time, the energy is priced over
        ``[start, start + duration]`` at the schedule's plateaus;
        otherwise at the flat rate.
        """
        if self.schedule is not None and start is not None:
            return self.schedule.cost(joules, start, duration)
        return joules / JOULES_PER_KWH * self.dollars_per_kwh

    def kg_co2(
        self, joules: float, *, start: Optional[float] = None,
        duration: float = 0.0,
    ) -> float:
        """Emissions attributable to ``joules`` at this grid intensity."""
        if self.schedule is not None and start is not None:
            return self.schedule.carbon(joules, start, duration)
        return joules / JOULES_PER_KWH * self.kg_co2_per_kwh


@dataclass(frozen=True)
class JobClass:
    """One recurring transfer job: a dataset and how often it runs.

    ``start_hour`` (0-24, optional) anchors the class's daily runs on
    the tariff clock; with a TOU :class:`TariffModel` schedule, the
    job's energy is then priced at the plateaus it actually spans
    (a 2 a.m. backup is billed off-peak, a noon sync at peak).
    Without it the class is priced at the flat/mean rate.
    """

    name: str
    dataset_factory: Callable[[], Dataset]
    jobs_per_day: float
    sla_level: Optional[float] = None  # only used by the "slaee" policy
    start_hour: Optional[float] = None

    def __post_init__(self) -> None:
        if self.jobs_per_day < 0:
            raise ValueError("jobs_per_day must be >= 0")
        if self.sla_level is not None and not (0 < self.sla_level <= 1):
            raise ValueError("sla_level must be in (0, 1]")
        if self.start_hour is not None and not (0 <= self.start_hour < 24):
            raise ValueError("start_hour must be in [0, 24)")


@dataclass(frozen=True)
class PolicyReport:
    """Annualized consequences of running the fleet under one policy."""

    policy: str
    annual_jobs: float
    annual_energy_kwh: float
    annual_transfer_hours: float
    annual_cost_dollars: float
    annual_kg_co2: float

    def savings_vs(self, baseline: "PolicyReport") -> float:
        """Fractional annual energy saving relative to ``baseline``."""
        if baseline.annual_energy_kwh <= 0:
            raise ValueError("baseline energy must be > 0")
        return 1.0 - self.annual_energy_kwh / baseline.annual_energy_kwh


class FleetModel:
    """A transfer service: one path, a daily job mix, a policy choice."""

    #: Policies a provider can operate the fleet under.
    POLICIES = ("promc", "htee", "mine", "slaee")

    def __init__(
        self,
        testbed: Testbed,
        job_classes: list[JobClass],
        *,
        tariff: TariffModel = TariffModel(),
        max_channels: Optional[int] = None,
    ) -> None:
        if not job_classes:
            raise ValueError("need at least one job class")
        self.testbed = testbed
        self.job_classes = list(job_classes)
        self.tariff = tariff
        self.max_channels = (
            max_channels if max_channels is not None else testbed.sla_reference_concurrency
        )
        self._run_cache: dict[tuple[str, str], TransferOutcome] = {}
        self._reference: dict[str, TransferOutcome] = {}

    # ------------------------------------------------------------------

    def _reference_run(self, job: JobClass) -> TransferOutcome:
        """ProMC at the reference concurrency: the path's peak, used as
        the SLA baseline and as the throughput-first policy."""
        if job.name not in self._reference:
            self._reference[job.name] = ProMCAlgorithm().run(
                self.testbed, job.dataset_factory(), self.max_channels
            )
        return self._reference[job.name]

    def _run(self, policy: str, job: JobClass) -> TransferOutcome:
        key = (policy, job.name)
        if key in self._run_cache:
            return self._run_cache[key]
        dataset = job.dataset_factory()
        if policy == "promc":
            outcome = self._reference_run(job)
        elif policy == "htee":
            outcome = HTEEAlgorithm().run(self.testbed, dataset, self.max_channels)
        elif policy == "mine":
            outcome = MinEAlgorithm().run(self.testbed, dataset, self.max_channels)
        elif policy == "slaee":
            reference = self._reference_run(job)
            level = job.sla_level if job.sla_level is not None else 0.8
            outcome = SLAEEAlgorithm().run(
                self.testbed,
                dataset,
                max(self.max_channels, self.testbed.brute_force_max_concurrency),
                sla_level=level,
                max_throughput=reference.throughput,
            )
        else:
            raise KeyError(f"unknown policy {policy!r}; known: {self.POLICIES}")
        self._run_cache[key] = outcome
        return outcome

    # ------------------------------------------------------------------

    def report(self, policy: str) -> PolicyReport:
        """Annualized energy/cost/CO2 of running every job under ``policy``.

        With a TOU tariff schedule, classes that declare a
        ``start_hour`` are billed at the plateaus their daily run
        actually spans; the rest (and all classes on a flat tariff)
        are billed at the flat/mean rate.
        """
        joules = hours = jobs = dollars = kg = 0.0
        for job in self.job_classes:
            outcome = self._run(policy, job)
            annual = job.jobs_per_day * _DAYS_PER_YEAR
            jobs += annual
            joules += outcome.energy_joules * annual
            hours += outcome.duration_s / 3600.0 * annual
            start = (
                job.start_hour * 3600.0 if job.start_hour is not None else None
            )
            dollars += annual * self.tariff.dollars(
                outcome.energy_joules, start=start, duration=outcome.duration_s
            )
            kg += annual * self.tariff.kg_co2(
                outcome.energy_joules, start=start, duration=outcome.duration_s
            )
        kwh = joules / JOULES_PER_KWH
        return PolicyReport(
            policy=policy,
            annual_jobs=jobs,
            annual_energy_kwh=kwh,
            annual_transfer_hours=hours,
            annual_cost_dollars=dollars,
            annual_kg_co2=kg,
        )

    def compare(self, policies: Optional[list[str]] = None) -> list[PolicyReport]:
        """Reports for several policies (default: all four)."""
        return [self.report(p) for p in (policies or list(self.POLICIES))]

    def render_comparison(self, policies: Optional[list[str]] = None) -> str:
        """A text table of the policy comparison, ProMC as the baseline."""
        reports = self.compare(policies)
        baseline = next((r for r in reports if r.policy == "promc"), reports[0])
        lines = [
            f"{'policy':>8s} {'energy kWh/yr':>14s} {'cost $/yr':>11s} "
            f"{'CO2 kg/yr':>10s} {'busy h/yr':>10s} {'vs ProMC':>9s}"
        ]
        for report in reports:
            saving = report.savings_vs(baseline)
            lines.append(
                f"{report.policy:>8s} {report.annual_energy_kwh:14.1f} "
                f"{report.annual_cost_dollars:11.2f} {report.annual_kg_co2:10.1f} "
                f"{report.annual_transfer_hours:10.1f} {100 * saving:+8.1f}%"
            )
        return "\n".join(lines)


def global_projection_twh(savings_fraction: float, end_system_share: float = 0.25) -> float:
    """World-scale TWh/year saved if every end-system adopted a policy
    saving ``savings_fraction`` of end-system transfer energy.

    ``end_system_share`` is the paper's "at least one quarter of the
    data transfer power consumption happens at the end-systems".
    """
    if not (0 <= savings_fraction <= 1):
        raise ValueError("savings_fraction must be in [0, 1]")
    if not (0 < end_system_share <= 1):
        raise ValueError("end_system_share must be in (0, 1]")
    return WORLD_TRANSFER_TWH_PER_YEAR * end_system_share * savings_fraction
