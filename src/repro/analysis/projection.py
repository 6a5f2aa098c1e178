"""Provider-scale annual energy, cost and carbon projection.

The paper's motivation is economic: world-wide data movement burns an
estimated 450 TWh / ~90 billion USD per year, and "the service
providers can possibly offer low-cost data transfer options to their
customers in return for delayed transfers". :func:`annual_projection`
turns measured transfers into provider-scale numbers: a provider runs
a daily mix of transfer jobs on a path; choosing an energy-aware policy
instead of a throughput-first one changes the annual kWh, dollars and
CO2, priced on a :class:`~repro.service.tariff.TariffTrace`.

Everything is computed from actual simulated runs, one per job class
and policy (the jobs are deterministic).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

from repro.core.scheduler import TransferOutcome
from repro.datasets.files import Dataset
from repro.harness.runner import run_algorithm, run_slaee
from repro.service.tariff import JOULES_PER_KWH, TariffTrace, flat_tariff
from repro.testbeds.specs import Testbed

__all__ = [
    "JobClass",
    "PolicyReport",
    "PROJECTION_POLICIES",
    "WORLD_TRANSFER_TWH_PER_YEAR",
    "annual_projection",
    "global_projection_twh",
    "render_projection",
]

#: The paper's Introduction: "The annual electricity consumed by these
#: data transfers worldwide is estimated to be 450 Terawatt hours".
WORLD_TRANSFER_TWH_PER_YEAR = 450.0

_DAYS_PER_YEAR = 365

#: Policies a provider can operate the fleet under.
PROJECTION_POLICIES = ("promc", "htee", "mine", "slaee")

#: The :data:`repro.harness.runner.ALGORITHMS` entry each plain policy
#: runs; ``slaee`` goes through :func:`repro.harness.runner.run_slaee`.
_ALGORITHM = {"promc": "ProMC", "htee": "HTEE", "mine": "MinE"}


@dataclass(frozen=True)
class JobClass:
    """One recurring transfer job: a dataset and how often it runs.

    ``start_hour`` (0-24, optional) anchors the class's daily runs on
    the tariff clock: the job's energy is then priced at the plateaus
    it actually spans (a 2 a.m. backup is billed off-peak, a noon sync
    at peak). Without it the class is priced at the tariff's mean rate.
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


def _price(
    tariff: TariffTrace, outcome: TransferOutcome, start_hour: Optional[float]
) -> tuple[float, float]:
    """Dollars and kgCO2 of one run: at the plateaus it spans when the
    class has a start hour, else at the tariff's mean rates."""
    joules = outcome.energy_joules
    if start_hour is None:
        return (
            joules / JOULES_PER_KWH * tariff.mean_price,
            joules / JOULES_PER_KWH * tariff.mean_carbon,
        )
    start = start_hour * 3600.0
    return (
        tariff.cost(joules, start, outcome.duration_s),
        tariff.carbon(joules, start, outcome.duration_s),
    )


def annual_projection(
    testbed: Testbed,
    job_classes: Sequence[JobClass],
    *,
    tariff: TariffTrace = flat_tariff(),
    max_channels: Optional[int] = None,
    policies: Sequence[str] = PROJECTION_POLICIES,
) -> list[PolicyReport]:
    """Annualized energy, cost and CO2 of running every job class on
    ``testbed`` under each of ``policies``, one report per policy.

    ProMC at ``max_channels`` (default: the testbed's SLA reference
    concurrency) is the throughput-first policy and the SLAEE
    reference; it runs once per class.
    """
    if not job_classes:
        raise ValueError("need at least one job class")
    for policy in policies:
        if policy not in PROJECTION_POLICIES:
            raise KeyError(f"unknown policy {policy!r}; known: {PROJECTION_POLICIES}")
    channels = (
        max_channels if max_channels is not None else testbed.sla_reference_concurrency
    )
    references: dict[JobClass, TransferOutcome] = {}

    def reference(job: JobClass) -> TransferOutcome:
        if job not in references:
            references[job] = run_algorithm(
                testbed, "ProMC", channels, job.dataset_factory()
            )
        return references[job]

    def run(policy: str, job: JobClass) -> TransferOutcome:
        if policy == "promc":
            return reference(job)
        if policy == "slaee":
            return run_slaee(
                testbed,
                job.sla_level if job.sla_level is not None else 0.8,
                reference(job).throughput,
                max(channels, testbed.brute_force_max_concurrency),
                job.dataset_factory(),
            )
        return run_algorithm(testbed, _ALGORITHM[policy], channels, job.dataset_factory())

    reports = []
    for policy in policies:
        joules = hours = jobs = dollars = kg = 0.0
        for job in job_classes:
            outcome = run(policy, job)
            annual = job.jobs_per_day * _DAYS_PER_YEAR
            jobs += annual
            joules += outcome.energy_joules * annual
            hours += outcome.duration_s / 3600.0 * annual
            cost, carbon = _price(tariff, outcome, job.start_hour)
            dollars += annual * cost
            kg += annual * carbon
        reports.append(PolicyReport(
            policy=policy,
            annual_jobs=jobs,
            annual_energy_kwh=joules / JOULES_PER_KWH,
            annual_transfer_hours=hours,
            annual_cost_dollars=dollars,
            annual_kg_co2=kg,
        ))
    return reports


def render_projection(reports: Sequence[PolicyReport]) -> str:
    """A text table of the policy reports, ProMC (else the first) as
    the baseline."""
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
