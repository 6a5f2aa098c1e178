"""Chaos & SLO harness: seeded fault scenarios for the service layer.

Scripts a day of bad weather — link brownouts, server crash storms,
tariff spikes, flash crowds, background-traffic surges — replays it
deterministically against :class:`~repro.service.simulate.ServiceSimulator`
or :class:`~repro.service.fleet.FleetSimulator`, and judges the
resulting report against per-scenario SLO budgets (burn-rate oracle).
See DESIGN.md §5g and ``repro chaos --help``.
"""

from repro.chaos.actions import (
    AmbientTraffic,
    ChannelCut,
    LinkScale,
    ServerOutage,
    TariffSwap,
)
from repro.chaos.orchestrator import (
    ChaosResult,
    day_simulator,
    pack_to_json,
    run_pack,
    run_scenario,
    strip_wall,
)
from repro.chaos.scenarios import (
    SCENARIO_PRESETS,
    ScenarioScript,
    scenario_by_name,
)
from repro.chaos.slo import (
    SLO_METRICS,
    SLOBudget,
    SLOCheck,
    SLORule,
    SLOVerdict,
)

__all__ = [
    # actions
    "LinkScale", "AmbientTraffic", "ServerOutage", "ChannelCut", "TariffSwap",
    # scenarios
    "ScenarioScript", "SCENARIO_PRESETS", "scenario_by_name",
    # SLO oracle
    "SLO_METRICS", "SLORule", "SLOCheck", "SLOBudget", "SLOVerdict",
    # orchestrator
    "ChaosResult", "day_simulator", "run_scenario", "run_pack", "pack_to_json",
    "strip_wall",
]
