"""Annual provider-scale projection."""

import pytest

from repro.analysis.projection import (
    WORLD_TRANSFER_TWH_PER_YEAR,
    JobClass,
    PolicyReport,
    annual_projection,
    global_projection_twh,
    render_projection,
)
from repro.service.tariff import tariff_by_name


@pytest.fixture
def fleet(small_testbed):
    """Reports of ``small_testbed``'s two-class mix under ``policies``."""
    jobs = [
        JobClass("nightly", small_testbed.dataset_factory, jobs_per_day=2.0),
        JobClass("hourly", small_testbed.dataset_factory, jobs_per_day=24.0,
                 sla_level=0.7),
    ]

    def project(*policies):
        return annual_projection(small_testbed, jobs, max_channels=4,
                                 policies=policies)

    return project


class TestJobClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobClass("x", lambda: None, jobs_per_day=-1)
        with pytest.raises(ValueError):
            JobClass("x", lambda: None, jobs_per_day=1, sla_level=0.0)


class TestFleetModel:
    def test_needs_jobs(self, small_testbed):
        with pytest.raises(ValueError):
            annual_projection(small_testbed, [])

    def test_report_annualizes(self, fleet):
        [report] = fleet("promc")
        assert report.annual_jobs == pytest.approx((2.0 + 24.0) * 365)
        assert report.annual_energy_kwh > 0
        assert report.annual_cost_dollars > 0
        assert report.annual_transfer_hours > 0

    def test_mine_policy_never_meaningfully_worse(self, fleet):
        promc, mine = fleet("promc", "mine")
        assert mine.savings_vs(promc) > -0.05

    def test_htee_policy_produces_sane_report(self, fleet):
        # on a tiny job HTEE's probe phase dominates, so it may cost
        # more than ProMC here — the XSEDE-scale comparison lives in
        # examples/provider_fleet.py and the integration suite
        [report] = fleet("htee")
        assert report.annual_energy_kwh > 0
        assert report.annual_transfer_hours > 0

    def test_slaee_uses_job_sla_levels(self, fleet):
        [report] = fleet("slaee")
        assert report.annual_energy_kwh > 0

    def test_unknown_policy(self, fleet):
        with pytest.raises(KeyError):
            fleet("carrier-pigeon")

    def test_render_comparison(self, fleet):
        text = render_projection(fleet("promc", "mine"))
        assert "promc" in text and "mine" in text
        assert "vs ProMC" in text

    def test_savings_vs_requires_positive_baseline(self):
        a = PolicyReport("a", 1, 0.0, 1, 1, 1)
        b = PolicyReport("b", 1, 10.0, 1, 1, 1)
        with pytest.raises(ValueError):
            b.savings_vs(a)
        assert b.savings_vs(b) == 0.0


def _project(testbed, tariff, start_hour):
    """All four policies' reports for ``testbed``'s two-class mix."""
    jobs = [
        JobClass("nightly", testbed.dataset_factory, jobs_per_day=2.0,
                 start_hour=start_hour),
        JobClass("hourly", testbed.dataset_factory, jobs_per_day=24.0,
                 sla_level=0.7, start_hour=start_hour),
    ]
    return annual_projection(testbed, jobs, tariff=tariff_by_name(tariff),
                             max_channels=4)


_FLAT_REPORTS = [
    "PolicyReport(policy='promc', annual_jobs=9490.0, annual_energy_kwh=0.1513007001784336, annual_transfer_hours=3.163333333333333, annual_cost_dollars=0.012104056014274693, annual_kg_co2=0.055981259066020445)",
    "PolicyReport(policy='htee', annual_jobs=9490.0, annual_energy_kwh=0.2897296999999999, annual_transfer_hours=6.326666666666668, annual_cost_dollars=0.023178375999999997, annual_kg_co2=0.107199989)",
    "PolicyReport(policy='mine', annual_jobs=9490.0, annual_energy_kwh=0.1513007001784336, annual_transfer_hours=3.163333333333333, annual_cost_dollars=0.012104056014274693, annual_kg_co2=0.055981259066020445)",
    "PolicyReport(policy='slaee', annual_jobs=9490.0, annual_energy_kwh=0.2897296999999999, annual_transfer_hours=6.326666666666668, annual_cost_dollars=0.023178375999999997, annual_kg_co2=0.107199989)",
]

#: Exact reports of the two-class mix, pinned so that reshaping the
#: projection code cannot move a single bit of any field. A one-plateau
#: tariff bills a clock-anchored class exactly like the mean rate.
GOLDEN_REPORTS = {
    ("flat", None): _FLAT_REPORTS,
    ("flat", 13.5): _FLAT_REPORTS,
    ("peak-offpeak", 2.0): [
        "PolicyReport(policy='promc', annual_jobs=9490.0, annual_energy_kwh=0.1513007001784336, annual_transfer_hours=3.163333333333333, annual_cost_dollars=0.007565035008921682, annual_kg_co2=0.04841622405709877)",
        "PolicyReport(policy='htee', annual_jobs=9490.0, annual_energy_kwh=0.2897296999999999, annual_transfer_hours=6.326666666666668, annual_cost_dollars=0.014486484999999997, annual_kg_co2=0.09271350399999999)",
        "PolicyReport(policy='mine', annual_jobs=9490.0, annual_energy_kwh=0.1513007001784336, annual_transfer_hours=3.163333333333333, annual_cost_dollars=0.007565035008921682, annual_kg_co2=0.04841622405709877)",
        "PolicyReport(policy='slaee', annual_jobs=9490.0, annual_energy_kwh=0.2897296999999999, annual_transfer_hours=6.326666666666668, annual_cost_dollars=0.014486484999999997, annual_kg_co2=0.09271350399999999)",
    ],
    ("peak-offpeak", None): [
        "PolicyReport(policy='promc', annual_jobs=9490.0, annual_energy_kwh=0.1513007001784336, annual_transfer_hours=3.163333333333333, annual_cost_dollars=0.015130070017843365, annual_kg_co2=0.05799860173506624)",
        "PolicyReport(policy='htee', annual_jobs=9490.0, annual_energy_kwh=0.2897296999999999, annual_transfer_hours=6.326666666666668, annual_cost_dollars=0.028972969999999994, annual_kg_co2=0.11106305166666665)",
        "PolicyReport(policy='mine', annual_jobs=9490.0, annual_energy_kwh=0.1513007001784336, annual_transfer_hours=3.163333333333333, annual_cost_dollars=0.015130070017843365, annual_kg_co2=0.05799860173506624)",
        "PolicyReport(policy='slaee', annual_jobs=9490.0, annual_energy_kwh=0.2897296999999999, annual_transfer_hours=6.326666666666668, annual_cost_dollars=0.028972969999999994, annual_kg_co2=0.11106305166666665)",
    ],
}


@pytest.mark.parametrize("tariff,start_hour", sorted(GOLDEN_REPORTS, key=str))
def test_reports_are_pinned(small_testbed, tariff, start_hour):
    reports = _project(small_testbed, tariff, start_hour)
    assert [repr(r) for r in reports] == GOLDEN_REPORTS[(tariff, start_hour)]


class TestGlobalProjection:
    def test_paper_constants(self):
        assert WORLD_TRANSFER_TWH_PER_YEAR == 450.0

    def test_30pct_of_end_system_quarter(self):
        # the paper's headline: 30% savings on the end-system quarter
        saved = global_projection_twh(0.30)
        assert saved == pytest.approx(450.0 * 0.25 * 0.30)

    def test_validation(self):
        with pytest.raises(ValueError):
            global_projection_twh(1.5)
        with pytest.raises(ValueError):
            global_projection_twh(0.5, end_system_share=0.0)
