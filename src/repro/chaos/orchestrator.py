"""Chaos orchestrator: replay a scenario against the service layer.

:func:`run_scenario` builds the base workload, merges the scenario's
extra arrivals, runs one service (or fleet) day with the scenario's
interventions injected at their scripted times, and hands the finished
report to the scenario's SLO oracle. The run uses
``on_timeout="report"`` — a scenario harsh enough to strand work past
``max_time`` produces an honestly-truncated report (unfinished jobs
counted, percentiles ``n/a``) and an SLO verdict over it, never a
crash.

:func:`run_pack` crosses scenarios with policies — the CI smoke matrix
— and :func:`strip_wall` removes the wall-clock fields
(``wall_s``/``jobs_per_sec``/``jobs_per_day``) that sit outside the
determinism contract, so two same-seed packs compare byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.chaos.scenarios import (
    SCENARIO_PRESETS,
    ScenarioScript,
    scenario_by_name,
)
from repro.chaos.slo import SLOVerdict
from repro.obs.observer import Observer
from repro.service.fleet import FleetReport, FleetSimulator
from repro.service.requests import workload_by_name
from repro.service.scheduler import DeferralPolicy, policy_by_name
from repro.service.simulate import ServiceReport, ServiceSimulator
from repro.service.tariff import TariffTrace
from repro.testbeds import Testbed
from repro.units import Seconds

__all__ = [
    "ChaosResult", "day_simulator", "run_scenario", "run_pack", "pack_to_json",
    "strip_wall",
]

#: Report fields measuring the real machine, not the simulation —
#: outside the determinism contract (see ``repro.service.fleet``).
_WALL_KEYS = frozenset({"wall_s", "jobs_per_sec", "jobs_per_day"})


def strip_wall(payload: Any) -> Any:
    """``payload`` with every wall-clock field recursively removed."""
    if isinstance(payload, dict):
        return {
            key: strip_wall(value)
            for key, value in payload.items()
            if key not in _WALL_KEYS
        }
    if isinstance(payload, list):
        return [strip_wall(item) for item in payload]
    return payload


@dataclass(frozen=True)
class ChaosResult:
    """One (scenario, policy) cell: the day's report plus the SLO
    verdict over it."""

    scenario: ScenarioScript
    report: Union[ServiceReport, FleetReport]
    verdict: SLOVerdict
    seed: int

    @property
    def policy(self) -> str:
        return self.report.policy

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    def to_dict(self, *, include_jobs: bool = False) -> dict:
        """The cell as a JSON-safe dict. ``include_jobs=False`` (the
        default) drops the per-job rows — the pack artifact stays
        small while totals, per-tenant and verdict survive."""
        report = self.report.to_dict()
        if not include_jobs:
            report.pop("job_results", None)
        return {
            "scenario": self.scenario.name,
            "description": self.scenario.description,
            "policy": self.policy,
            "seed": self.seed,
            "actions": [
                {"time": action.time, "kind": action.kind}
                for action in self.scenario.actions
            ],
            "extra_requests": len(self.scenario.extra_requests),
            "verdict": self.verdict.to_dict(),
            "report": report,
        }

    def render(self) -> str:
        """Human-readable block: scenario header, report, verdict."""
        lines = [
            f"scenario {self.scenario.name} ({self.scenario.description})",
            self.report.render(),
            self.verdict.render(),
        ]
        return "\n".join(lines)


def _resolve_scenario(
    scenario: Union[str, ScenarioScript],
    *,
    day_s: Seconds,
    seed: int,
    tariff: TariffTrace,
    testbed: Testbed,
    jobs: int,
) -> ScenarioScript:
    if isinstance(scenario, ScenarioScript):
        return scenario
    return scenario_by_name(
        scenario, day_s=day_s, seed=seed, tariff=tariff, testbed=testbed,
        jobs=jobs,
    )


def day_simulator(
    testbed: Testbed, *, shards: int = 1, workers: Optional[int] = 1,
    **service: Any,
) -> Union[ServiceSimulator, FleetSimulator]:
    """The simulator one chaos cell runs: a :class:`ServiceSimulator`
    for ``shards <= 1``, else a :class:`FleetSimulator`. ``service`` is
    passed to it unchanged, so an out-of-range knob raises
    ``ValueError`` here."""
    if shards <= 1:
        return ServiceSimulator(testbed, **service)
    return FleetSimulator(testbed, shards=shards, workers=workers, **service)


def run_scenario(
    scenario: Union[str, ScenarioScript],
    *,
    testbed: Testbed,
    policy: Union[str, DeferralPolicy],
    tariff: TariffTrace,
    jobs: int = 24,
    day_s: Seconds = 3600.0,
    seed: int = 7,
    workload: str = "steady",
    max_concurrent_jobs: int = 4,
    max_channels: int = 4,
    shards: int = 1,
    workers: Optional[int] = 1,
    fast: bool = True,
    observer: Optional[Observer] = None,
    max_time: Optional[Seconds] = None,
    dataset_pool: Optional[int] = None,
    topology: Optional[str] = None,
    placement: str = "least-congested",
    placement_seed: int = 0,
) -> ChaosResult:
    """Run one scenario under one policy and judge it.

    ``shards=1`` runs a single :class:`ServiceSimulator`; ``shards>1``
    a :class:`FleetSimulator` (the scenario's interventions replay on
    every shard — shared weather). ``max_time`` defaults to eight
    scenario days; hitting it truncates honestly rather than raising.

    ``topology`` defaults from the script: a scenario that pins one
    (e.g. ``spine-congestion``) runs topology-backed without the
    caller asking, so its targeted faults always have their named
    bottleneck to hit. ``placement`` picks the routing policy judged
    under that weather.
    """
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    script = _resolve_scenario(
        scenario, day_s=day_s, seed=seed, tariff=tariff, testbed=testbed,
        jobs=jobs,
    )
    if topology is None:
        topology = script.topology
    base = workload_by_name(
        workload, jobs, day_s=day_s, seed=seed,
        size_scale=day_s / 86400.0, dataset_pool=dataset_pool,
    )
    requests = sorted(
        [*base, *script.extra_requests],
        key=lambda r: (r.submit_time, r.name),
    )
    if max_time is None:
        max_time = 8.0 * day_s
    simulator = day_simulator(
        testbed, shards=shards, workers=workers,
        policy=policy, tariff=tariff,
        max_concurrent_jobs=max_concurrent_jobs, max_channels=max_channels,
        observer=observer, fast=fast, topology=topology,
        placement=placement, placement_seed=placement_seed,
    )
    report = simulator.run(
        requests, max_time=max_time, interventions=script.actions,
        on_timeout="report",
    )
    verdict = script.slo.evaluate(
        report, observer=observer, time=report.makespan_s
    )
    return ChaosResult(scenario=script, report=report, verdict=verdict,
                       seed=seed)


def run_pack(
    *,
    testbed: Testbed,
    tariff: TariffTrace,
    scenarios: Optional[Sequence[Union[str, ScenarioScript]]] = None,
    policies: Sequence[Union[str, DeferralPolicy]] = ("run-now",),
    **config: Any,
) -> list[ChaosResult]:
    """Cross every scenario with every policy (the CI smoke matrix).

    ``config`` is forwarded to :func:`run_scenario` unchanged, so one
    call pins jobs/day/seed/shards for the whole pack.
    """
    if scenarios is None:
        scenarios = sorted(SCENARIO_PRESETS)
    results = []
    for scenario in scenarios:
        for policy in policies:
            results.append(
                run_scenario(
                    scenario, testbed=testbed, policy=policy, tariff=tariff,
                    **config,
                )
            )
    return results


def pack_to_json(results: Sequence[ChaosResult], **dumps_kwargs: Any) -> str:
    """The pack as a JSON document (wall-clock fields stripped, so
    same-seed packs are byte-identical)."""
    payload = {
        "results": [strip_wall(result.to_dict()) for result in results],
        "passed": all(result.passed for result in results),
    }
    return json.dumps(payload, **dumps_kwargs)
