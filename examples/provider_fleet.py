#!/usr/bin/env python3
"""What does an energy-aware fleet policy save per year?

A research-data provider pushes the paper's 160 GB mixed dataset over
the XSEDE path several times a day, plus smaller hourly syncs. This
script compares four fleet policies — throughput-first ProMC, the two
energy-aware algorithms, and tiered SLAEE — in annual kWh, dollars and
CO2, then scales the best saving to the paper's world-wide estimate
(450 TWh/year of transfer electricity, a quarter of it burned at the
end-systems).

Run:  python examples/provider_fleet.py
"""

from repro import units
from repro.analysis.projection import (
    JobClass,
    annual_projection,
    global_projection_twh,
    render_projection,
)
from repro.datasets.generators import log_uniform_dataset
from repro.service.tariff import flat_tariff
from repro.testbeds import XSEDE


def hourly_sync():
    return log_uniform_dataset(
        20 * units.GB, 3 * units.MB, 2 * units.GB, seed=99, name="hourly-sync-20GB"
    )


def main() -> None:
    reports = annual_projection(
        XSEDE,
        [
            JobClass("bulk-replication", XSEDE.dataset_factory, jobs_per_day=4.0,
                     sla_level=0.9),
            JobClass("hourly-sync", hourly_sync, jobs_per_day=24.0, sla_level=0.7),
        ],
        tariff=flat_tariff(price=0.08, carbon=0.37),
        max_channels=12,
    )

    print(f"Fleet path : {XSEDE.describe()}")
    print("Daily mix  : 4x 160 GB bulk replications + 24x 20 GB syncs\n")
    print(render_projection(reports))

    promc = next(r for r in reports if r.policy == "promc")
    best = min(reports, key=lambda r: r.annual_energy_kwh)
    saving = best.savings_vs(promc)
    print(
        f"\nBest policy: {best.policy} — saves {100 * saving:.0f}% of fleet "
        f"energy, ${promc.annual_cost_dollars - best.annual_cost_dollars:.2f} "
        f"and {promc.annual_kg_co2 - best.annual_kg_co2:.0f} kg CO2 per year"
        " on this one path."
    )
    world = global_projection_twh(saving)
    print(
        f"Scaled to the paper's global estimate (450 TWh/yr, 25% at the"
        f" end-systems), universal adoption would save ~{world:.0f} TWh/yr."
    )


if __name__ == "__main__":
    main()
