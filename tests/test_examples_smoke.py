"""Smoke tests: the example scripts actually run.

Only the fast examples run in the unit suite (the heavier ones —
workload matrices, fleets — are exercised indirectly by the benchmark
suite's equivalent experiments). Each example must exit cleanly and
print its headline line.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = {
    "quickstart.py": "HTEE vs untuned",
    "campus_backup.py": "single-disk LAN",
    "adaptive_sla.py": "SLA held",
    "power_model_calibration.py": "Validation on transfer tools",
    "failure_drill.py": "restart markers",
    "provider_fleet.py": "Best policy",
}


@pytest.mark.parametrize("script,expected", sorted(FAST_EXAMPLES.items()))
def test_example_runs(script, expected, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out


def test_every_example_has_a_docstring_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3\n"""', '"""')), script
        assert 'if __name__ == "__main__":' in text, script


def test_sla_broker_accepts_testbed_argument(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["sla_broker.py", "didclab"])
    runpy.run_path(str(EXAMPLES / "sla_broker.py"), run_name="__main__")
    assert "DIDCLAB" in capsys.readouterr().out
