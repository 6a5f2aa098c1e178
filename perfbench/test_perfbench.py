"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They check, at reduced size, that the fast driver the reference was
taken from agrees with the dt-grid driver; that the committed reference
matches a fresh run; that tracing wrappers exist only inside the traced
block and leave the simulation unchanged; and the self-time arithmetic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Reduced day sizes for the dt-grid comparison (the grid driver is
#: tens of times slower than the fast one).
SMALL_JOBS = {"chunky-day": 24, "spray-deferral": 60, "topo-fleet": 40}


def _day(name: str, seed: int, jobs: int, fast: bool):
    spec = workloads.WORKLOADS[name]
    requests = spec.make_requests(seed, jobs)
    workloads.reset_caches()
    return spec.make_simulator(jobs, fast=fast).run(requests), requests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fast_driver_matches_grid_at_reduced_size(name):
    fast, requests = _day(name, 3, SMALL_JOBS[name], fast=True)
    grid, _ = _day(name, 3, SMALL_JOBS[name], fast=False)
    assert workloads.invariants(fast, requests) == []
    assert workloads.compare(
        workloads.fingerprint(fast), workloads.fingerprint(grid)
    ) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_matches_a_fresh_run(name):
    table = json.loads((HERE / "reference.json").read_text())["workloads"]
    assert set(table) == set(workloads.WORKLOADS)
    assert len(table[name]) >= 10
    seed = min(table[name], key=int)
    spec = workloads.WORKLOADS[name]
    report, _ = _day(name, int(seed), spec.jobs, fast=True)
    assert workloads.compare(workloads.fingerprint(report), table[name][seed]) == []


def test_compare_flags_each_kind_of_mismatch():
    base = {"jobs": 2, "finished": 2, "bytes": 10, "times_sha256": "ab",
            "energy_j": 5.0, "cost_usd": 1.0}
    assert workloads.compare(dict(base), base) == []
    assert workloads.compare(dict(base, energy_j=5.0 * (1 + 1e-12)), base) == []
    for key, value in (("finished", 1), ("bytes", 11), ("times_sha256", "cd"),
                       ("energy_j", 5.0 * (1 + 1e-6)), ("cost_usd", 1.1)):
        assert len(workloads.compare(dict(base, **{key: value}), base)) == 1


def _originals() -> list:
    return [vars(owner)[attr] for owner, attr, _layer in spans.targets()]


def test_wrappers_exist_only_inside_the_traced_block():
    before = _originals()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        inside = _originals()
        assert all(a is not b for a, b in zip(before, inside))
    assert all(a is b for a, b in zip(before, _originals()))


def test_wrappers_are_restored_when_the_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _originals()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_day_has_the_untraced_fingerprint(name):
    plain, requests = _day(name, 5, SMALL_JOBS[name], fast=True)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced, _ = _day(name, 5, SMALL_JOBS[name], fast=True)
    assert workloads.fingerprint(traced) == workloads.fingerprint(plain)
    _, calls = spans.self_times(tracer.spans)
    assert calls["service"] >= 1 and calls["plan"] == len(requests)
    assert all(span is not None for span in tracer.spans)


def test_self_time_subtracts_children():
    recorded = [
        ("service", 0.0, 10.0, -1),
        ("plan", 1.0, 3.0, 0),
        ("tariff", 1.5, 2.0, 1),
        ("plan", 4.0, 5.0, 0),
    ]
    seconds, calls = spans.self_times(recorded)
    assert seconds == {"service": 7.0, "plan": 2.5, "tariff": 0.5}
    assert calls == {"service": 1, "plan": 2, "tariff": 1}
