"""Chaos scenario-pack benchmark: fault replay + SLO verdicts under CI.

Replays every chaos scenario preset (link brownout, server crash
storm, tariff spike, flash crowd, background-traffic surge) against
the scheduling service on XSEDE under two deferral policies and writes
``BENCH_chaos.json``: per-cell service metrics, the SLO oracle's
verdict, and two correctness gates measured per scenario —

* **determinism** — the same (scenario, policy, seed) cell re-run must
  produce a byte-identical report (wall-clock fields stripped);
* **fast vs grid** — the event-horizon fast path under fault injection
  must match the reference dt-grid loop: bit-equal job timestamps and
  cost/energy/makespan relative errors at or below 1e-9.

``--check`` turns both gates (plus "every scenario preset ran") into a
CI failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke --check

Not a pytest file on purpose: it is a standalone script so CI can run
it in smoke mode and upload the JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_service import _rel_err  # noqa: E402 — sibling bench module

from repro.chaos import SCENARIO_PRESETS, run_scenario, strip_wall
from repro.service import tariff_by_name
from repro.testbeds.specs import testbed_by_name

POLICIES = ("run-now", "price-threshold")

#: Relative-error budget for fast-vs-grid scalar aggregates. The fast
#: path's contract is bit-equal *times* and float-accumulation-order
#: equality on energy/cost, so 1e-9 is generous.
REL_ERR_BUDGET = 1e-9


def _cell_dict(result) -> dict:
    """The determinism-relevant slice of one cell (stripped report +
    verdict), used both for the artifact and the byte-compare."""
    return strip_wall(result.to_dict(include_jobs=True))


def _run_cell(scenario: str, policy: str, *, testbed, tariff, jobs, day_s,
              seed, fast=True):
    return run_scenario(
        scenario, testbed=testbed, policy=policy, tariff=tariff,
        jobs=jobs, day_s=day_s, seed=seed, fast=fast,
    )


def run_benchmark(*, smoke: bool = False, seed: int = 7) -> dict:
    testbed = testbed_by_name("xsede")
    jobs, day_s = (8, 1200.0) if smoke else (24, 3600.0)
    tariff = tariff_by_name("peak-offpeak", period_s=day_s)
    config = dict(testbed=testbed, tariff=tariff, jobs=jobs, day_s=day_s,
                  seed=seed)

    cells = []
    for scenario in sorted(SCENARIO_PRESETS):
        for policy in POLICIES:
            start = time.perf_counter()
            result = _run_cell(scenario, policy, **config)
            wall = time.perf_counter() - start
            report = result.report

            rerun = _run_cell(scenario, policy, **config)
            deterministic = json.dumps(
                _cell_dict(result), sort_keys=True
            ) == json.dumps(_cell_dict(rerun), sort_keys=True)

            row = {
                "scenario": scenario,
                "policy": policy,
                "description": result.scenario.description,
                "jobs": len(report.jobs),
                "makespan_s": report.makespan_s,
                "cost_usd": report.total_cost_usd,
                "kwh": report.total_energy_j / 3.6e6,
                "deadline_miss_rate": report.deadline_miss_rate,
                "p95_slowdown": report.p95_slowdown,
                "truncated": report.truncated,
                "unfinished_jobs": report.unfinished_jobs,
                "verdict": result.verdict.to_dict(),
                "deterministic": deterministic,
                "wall_s": wall,
            }

            # Grid reference once per scenario (the slow loop).
            if policy == POLICIES[0]:
                grid_start = time.perf_counter()
                grid = _run_cell(scenario, policy, fast=False, **config)
                grid_wall = time.perf_counter() - grid_start
                greport = grid.report
                times_bitequal = all(
                    a.admitted_at == b.admitted_at
                    and a.completed_at == b.completed_at
                    for a, b in zip(report.jobs, greport.jobs)
                )
                row["fast_vs_grid"] = {
                    "times_bitequal": times_bitequal,
                    "rel_err_cost": _rel_err(
                        report.total_cost_usd, greport.total_cost_usd
                    ),
                    "rel_err_energy": _rel_err(
                        report.total_energy_j, greport.total_energy_j
                    ),
                    "rel_err_makespan": _rel_err(
                        report.makespan_s, greport.makespan_s
                    ),
                    "grid_wall_s": grid_wall,
                }
            cells.append(row)

    return {
        "benchmark": "chaos",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "testbed": "xsede",
        "jobs": jobs,
        "day_s": day_s,
        "seed": seed,
        "rel_err_budget": REL_ERR_BUDGET,
        "cells": cells,
        "pack_passed": all(cell["verdict"]["passed"] for cell in cells),
    }


def check_benchmark(report: dict) -> list[str]:
    """CI gate: coverage, determinism and fast-vs-grid consistency."""
    failures = []
    ran = {cell["scenario"] for cell in report["cells"]}
    missing = set(SCENARIO_PRESETS) - ran
    if missing:
        failures.append(f"scenario presets never ran: {sorted(missing)}")
    for cell in report["cells"]:
        tag = f"{cell['scenario']}/{cell['policy']}"
        if not cell["deterministic"]:
            failures.append(f"{tag}: same-seed rerun was not byte-identical")
        gate = cell.get("fast_vs_grid")
        if gate is None:
            continue
        if not gate["times_bitequal"]:
            failures.append(f"{tag}: fast-vs-grid job timestamps diverged")
        for key in ("rel_err_cost", "rel_err_energy", "rel_err_makespan"):
            if gate[key] > report["rel_err_budget"]:
                failures.append(
                    f"{tag}: {key} {gate[key]:.3e} above the "
                    f"{report['rel_err_budget']:.0e} budget"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI mode: fewer jobs, shorter day")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload + scenario seed")
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: exit non-zero unless every scenario ran, every "
             "cell is deterministic, and fast-vs-grid errors stay "
             "below 1e-9",
    )
    parser.add_argument(
        "-o", "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_chaos.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(smoke=args.smoke, seed=args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"chaos benchmark ({report['mode']}) -> {args.output}")
    for cell in report["cells"]:
        verdict = "PASS" if cell["verdict"]["passed"] else "FAIL"
        det = "ok" if cell["deterministic"] else "DIVERGED"
        gate = cell.get("fast_vs_grid")
        gate_s = ""
        if gate is not None:
            worst = max(gate["rel_err_cost"], gate["rel_err_energy"],
                        gate["rel_err_makespan"])
            bits = "bit-equal" if gate["times_bitequal"] else "DIVERGED"
            gate_s = f"  grid: times {bits}, worst rel-err {worst:.1e}"
        print(
            f"  {cell['scenario']:>13s} / {cell['policy']:<15s} "
            f"SLO {verdict}  miss {cell['deadline_miss_rate']:.0%}  "
            f"det {det}{gate_s}"
        )
    print(f"  pack SLO verdict: "
          f"{'all passed' if report['pack_passed'] else 'breaches present'}")
    if args.check:
        failures = check_benchmark(report)
        if failures:
            for failure in failures:
                print(f"  CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("  checks passed: coverage, determinism, fast-vs-grid "
              "within 1e-9")
    return 0


if __name__ == "__main__":
    sys.exit(main())
