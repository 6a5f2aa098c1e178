"""Post-hoc analyses: calibration sensitivity, curve crossovers and the
annual provider-scale projection."""

from repro.analysis.crossover import Crossover, argmax_interpolated, find_crossovers
from repro.analysis.projection import (
    PROJECTION_POLICIES,
    WORLD_TRANSFER_TWH_PER_YEAR,
    JobClass,
    PolicyReport,
    annual_projection,
    global_projection_twh,
    render_projection,
)
from repro.analysis.sensitivity import (
    KNOBS,
    SensitivityRow,
    perturb_testbed,
    render_sensitivity,
    sensitivity_report,
)

__all__ = [
    "Crossover",
    "JobClass",
    "KNOBS",
    "PROJECTION_POLICIES",
    "PolicyReport",
    "SensitivityRow",
    "WORLD_TRANSFER_TWH_PER_YEAR",
    "annual_projection",
    "argmax_interpolated",
    "find_crossovers",
    "global_projection_twh",
    "perturb_testbed",
    "render_projection",
    "render_sensitivity",
    "sensitivity_report",
]
