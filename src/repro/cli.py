"""Command-line interface.

::

    python -m repro testbeds
    python -m repro dataset   -t xsede
    python -m repro transfer  -t xsede -a HTEE -c 12 --sparkline
    python -m repro sweep     -t futuregrid -l 1 2 4 8
    python -m repro sla       -t xsede --targets 95 80 50
    python -m repro figures   fig02 fig10
    python -m repro validate

Every command prints human-readable tables; ``--json`` writes the raw
results for downstream tooling.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from collections.abc import Collection, Sequence
from typing import Optional

from repro.core.scheduler import engine_options
from repro.harness import figures as figure_renderers
from repro.harness.reporting import (
    render_trace,
    save_outcomes_json,
    save_trace_csv,
)
from repro.harness.runner import ALGORITHMS, run_algorithm
from repro.harness.sweeps import (
    PAPER_SLA_TARGETS,
    brute_force_sweep,
    concurrency_sweep,
    energy_decomposition,
    sla_sweep,
)
from repro.netenergy.topology import didclab_topology, futuregrid_topology, xsede_topology
from repro.testbeds import ALL_TESTBEDS, Testbed, testbed_by_name

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware data transfer algorithms (SC'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("testbeds", help="list the evaluation testbeds")

    p = sub.add_parser("dataset", help="describe a testbed's paper dataset")
    _add_testbed(p)

    p = sub.add_parser("transfer", help="run one algorithm on one testbed")
    _add_testbed(p)
    p.add_argument("-a", "--algorithm", default="HTEE", choices=sorted(ALGORITHMS),
                   help="transfer algorithm (default HTEE)")
    p.add_argument("-c", "--max-channels", type=int, default=12,
                   help="channel budget (default 12)")
    p.add_argument("--json", type=Path, default=None, help="write the outcome as JSON")
    p.add_argument("--trace", type=Path, default=None,
                   help="write the per-step engine trace as CSV")
    p.add_argument("--sparkline", action="store_true",
                   help="print throughput/power sparklines")

    p = sub.add_parser("sweep", help="concurrency sweep (Figures 2-4 panels a/b)")
    _add_testbed(p)
    p.add_argument("-a", "--algorithms", nargs="+", default=None,
                   help="algorithms to sweep (default: the paper's six)")
    p.add_argument("-l", "--levels", nargs="+", type=int, default=None,
                   help="concurrency levels (default: 1 2 4 6 8 10 12)")
    p.add_argument("--json", type=Path, default=None)

    p = sub.add_parser("sla", help="SLAEE target sweep (Figures 5-7)")
    _add_testbed(p)
    p.add_argument("--targets", nargs="+", type=float, default=list(PAPER_SLA_TARGETS),
                   help="target percentages of the ProMC maximum")

    p = sub.add_parser("figures", help="regenerate paper figures/tables as text")
    p.add_argument("names", nargs="*", default=["all"],
                   help="fig01 fig02 ... fig10 table1 (default: all)")

    p = sub.add_parser("advise", help="closed-form plan: parameters + predictions")
    _add_testbed(p)
    p.add_argument("-c", "--max-channels", type=int, default=12)
    p.add_argument("-w", "--workload", default=None,
                   help="workload preset (default: the testbed's paper dataset); "
                        "one of: genomics climate video logs vm-images")

    p = sub.add_parser("fleet", help="annual provider-scale policy comparison")
    _add_testbed(p)
    p.add_argument("--jobs-per-day", type=float, default=4.0,
                   help="daily runs of the testbed's paper dataset (default 4)")
    p.add_argument("--sla", type=float, default=0.8,
                   help="SLA level for the slaee policy (default 0.8)")
    p.add_argument("--tariff", default="flat",
                   help="time-of-use tariff preset: flat | peak-offpeak | "
                        "green-midday (default flat)")
    p.add_argument("--start-hour", type=float, default=None,
                   help="anchor the daily runs at this hour on the tariff "
                        "clock (0-24); default: mean-rate pricing")

    service = sub.add_parser(
        "service",
        help="run a day of tenant traffic through the scheduling service",
    )
    fleet = sub.add_parser(
        "fleet-service",
        help="run a day of tenant traffic across a sharded fleet of links",
    )
    for p, jobs in ((service, 24), (fleet, 96)):
        _add_testbed(p)
        _add_day_options(p, workload="diurnal", policy="price-threshold",
                         jobs=jobs)
        p.add_argument("--max-per-tenant", type=int, default=None,
                       help="per-tenant running-job cap, per shard in a "
                            "fleet (default: none)")
    fleet.add_argument("--shards", type=int, default=8,
                       help="identical-link shards to run (default 8)")
    fleet.add_argument("--routing", default="tenant-hash",
                       help="dispatch heuristic: tenant-hash | least-loaded | "
                            "weighted | round-robin | topology-aware "
                            "(needs --topology; shards become leaf/pod "
                            "pairs) (default tenant-hash)")
    fleet.add_argument("--steal-threshold", default=4.0,
                       type=_finite("--steal-threshold", "steal_threshold", zero_ok=True),
                       help="work-stealing saturation factor over the fleet's "
                            "mean relative backlog; 0 disables (default 4.0)")
    fleet.add_argument("--workers", type=int, default=None,
                       help="real process parallelism across shards "
                            "(default: min(shards, cpu count); 1 = inline)")
    fleet.add_argument("--context", type=Path, default=None, metavar="PATH",
                       help="warm-start plan context file: loaded before the "
                            "run if it exists, updated after (GContext-style)")

    p = sub.add_parser(
        "chaos",
        help="replay fault scenarios against the service and judge the "
             "day against SLO budgets",
    )
    _add_testbed(p)
    _add_day_options(p, workload="steady", policy="all", jobs=24)
    p.add_argument("-s", "--scenario", default="all",
                   help="scenario preset: brownout | crash-storm | "
                        "tariff-spike | flash-crowd | traffic-surge | "
                        "spine-congestion | all (default all)")
    p.add_argument("--shards", type=int, default=1,
                   help="run the scenario against a fleet of this many "
                        "shards instead of one service (default 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="real process parallelism across shards "
                        "(default 1 = inline)")
    p.add_argument("--check", action="store_true",
                   help="determinism self-check: run the pack twice and "
                        "fail unless the reports are byte-identical")

    p = sub.add_parser(
        "topo",
        help="describe a network topology and water-fill a synthetic "
             "flow set across it",
    )
    _add_testbed(p)
    p.add_argument("--topology", default="fat-tree:k=4", metavar="SPEC",
                   help="topology spec (default fat-tree:k=4); see "
                        "'service --topology' for the syntax")
    p.add_argument("--placement", default="least-congested",
                   help="placement policy: least-congested | ecmp-hash | "
                        "random-k (default least-congested)")
    p.add_argument("--flows", type=int, default=16,
                   help="synthetic flows to place and allocate (default 16)")
    p.add_argument("--seed", type=int, default=0,
                   help="placement seed (default 0)")
    p.add_argument("--check", action="store_true",
                   help="self-check: rerun with the same seed and fail "
                        "unless placements and rates are byte-identical, "
                        "and verify no bottleneck is over-subscribed")
    p.add_argument("--json", type=Path, nargs="?", const=Path("-"),
                   default=None, metavar="PATH",
                   help="emit topology + allocation as JSON (to PATH, or "
                        "stdout when no path is given)")

    sub.add_parser("workloads", help="list the workload presets")

    p = sub.add_parser("pareto", help="throughput/energy frontier of a sweep")
    _add_testbed(p)
    p.add_argument("-l", "--levels", nargs="+", type=int, default=None)

    p = sub.add_parser("history", help="inspect a result store (.jsonl)")
    p.add_argument("store", type=Path, help="path to the result store")
    p.add_argument("--best", default=None, metavar="METRIC",
                   help="print the best run by this outcome metric "
                        "(e.g. efficiency, throughput)")

    p = sub.add_parser(
        "report",
        help="regenerate the evaluation as markdown, or inspect the "
             "observability layer (--events / --metrics)",
    )
    p.add_argument("-o", "--output", type=Path, default=Path("evaluation_report.md"))
    p.add_argument("--quick", action="store_true",
                   help="restricted concurrency axis and SLA targets")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--events", action="store_true",
                      help="run one observed transfer and print its "
                           "structured event stream")
    mode.add_argument("--metrics", action="store_true",
                      help="run one observed transfer and print its metric "
                           "summary (or merge archived summaries with --store)")
    p.add_argument("-t", "--testbed", default="xsede",
                   help="testbed for the observed transfer (default xsede)")
    p.add_argument("-a", "--algorithm", default="HTEE", choices=sorted(ALGORITHMS),
                   help="algorithm for the observed transfer (default HTEE)")
    p.add_argument("-c", "--max-channels", type=int, default=8,
                   help="channel budget for the observed transfer (default 8)")
    p.add_argument("--kind", default=None,
                   help="only print events of this kind (e.g. probe_window)")
    p.add_argument("--store", type=Path, default=None,
                   help="with --metrics: merge the archived per-cell metrics "
                        "tags of this result store instead of running")
    p.add_argument("--campaign", default=None,
                   help="with --store: restrict to one campaign name")
    p.add_argument("--json", type=Path, default=None,
                   help="also write the events/metrics as JSON")

    p = sub.add_parser(
        "lint",
        help="domain-aware static analysis (unit literals, determinism, "
             "float ==, observer guards, event kinds, API hygiene)",
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(p)

    sub.add_parser("validate", help="quick self-check: Eq. 2 + device table")
    return parser


def _add_testbed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-t", "--testbed", default="xsede",
        help="xsede | futuregrid | didclab, or a path to a testbed "
             "definition JSON file (default xsede)",
    )


class _FlagRangeError(Exception):
    """A flag's number is outside its domain. It is not a
    ``ValueError``, so argparse lets it through to :func:`main`, which
    prints it as one stderr line and exits 2."""


def _finite(flag: str, field: str, *, zero_ok: bool = False):
    """An argparse ``type=`` for ``flag``: a finite number > 0, or >= 0
    with ``zero_ok``. A value outside that is reported with the
    ``field`` it sets and the flag."""
    bound = ">= 0" if zero_ok else "> 0"

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > 0 or (zero_ok and value == 0))):
            raise _FlagRangeError(f"{field} must be {bound} and finite, got {flag} {text}")
        return value

    parse.__name__ = "float"  # argparse's "invalid float value" wording
    return parse


def _add_day_options(
    parser: argparse.ArgumentParser, *, workload: str, policy: str, jobs: int
) -> None:
    """The flags of a service day, shared by ``service``,
    ``fleet-service`` and ``chaos`` (each passes its own defaults)."""
    parser.add_argument("-w", "--workload", default=workload,
                        help="workload preset: steady | diurnal | bursty "
                             f"(default {workload})")
    parser.add_argument("-p", "--policy", default=policy,
                        help="deferral policy: run-now | deadline-edf | "
                             "price-threshold | carbon-aware"
                             f"{' | all' if policy == 'all' else ''} "
                             f"(default {policy})")
    parser.add_argument("--tariff", default="peak-offpeak",
                        help="tariff preset: flat | peak-offpeak | "
                             "green-midday (default peak-offpeak)")
    parser.add_argument("--jobs", type=int, default=jobs,
                        help=f"tenant requests over the day (default {jobs})")
    parser.add_argument("--day", type=_finite("--day", "day_s"), default=3600.0,
                        help="length of the simulated day in seconds; job "
                             "sizes (and chaos fault timings) scale "
                             "proportionally (default 3600)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload (and chaos scenario) seed (default 7)")
    parser.add_argument("--max-concurrent", type=int, default=4,
                        help="admission concurrency cap, per shard in a "
                             "fleet (default 4)")
    parser.add_argument("-c", "--max-channels", type=int, default=4,
                        help="channel budget per ENERGY/BALANCED job "
                             "(default 4)")
    parser.add_argument("--dataset-pool", type=int, default=None, metavar="N",
                        help="pre-draw N datasets per tenant and reuse them "
                             "across arrivals (exercises plan memoization; "
                             "default: fresh draw per job)")
    parser.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="run topology-backed: single-link | "
             "leaf-spine:s=2,l=4[,spine=f][,leaf=f] | "
             "fat-tree:k=4[,core=f][,edge=f] (capacity factors are "
             "fractions of the link bandwidth; default: the classic "
             "point-to-point path, or the scenario's pinned topology "
             "for chaos)",
    )
    parser.add_argument(
        "--placement", default="least-congested",
        help="placement policy over the topology's candidate routes: "
             "least-congested | ecmp-hash | random-k "
             "(default least-congested)",
    )
    parser.add_argument(
        "--placement-seed", type=int, default=0,
        help="seed for the random-k placement sampler (default 0)",
    )
    parser.add_argument("--events", action="store_true",
                        help="also print the event stream (job lifecycle; "
                             "fleet dispatch; faults and SLOs)")
    parser.add_argument("--grid", action="store_true",
                        help="run the reference dt-grid loop (on every "
                             "shard of a fleet) instead of the event-horizon "
                             "fast path (slow; identical results)")
    parser.add_argument("--json", type=Path, nargs="?", const=Path("-"),
                        default=None, metavar="PATH",
                        help="emit the report (for chaos, the pack with its "
                             "SLO verdicts) as JSON (to PATH, or stdout when "
                             "no path is given)")


def _day_knobs(args: argparse.Namespace) -> dict:
    """The service knobs :func:`_add_day_options` sets, as keyword
    arguments of ``ServiceSimulator``, ``FleetSimulator`` and
    ``run_scenario``."""
    return dict(
        max_concurrent_jobs=args.max_concurrent,
        max_channels=args.max_channels,
        fast=not args.grid,
        topology=args.topology,
        placement=args.placement,
        placement_seed=args.placement_seed,
    )


def _day_requests(args: argparse.Namespace):
    """The day's requests and tariff, both scaled to ``--day``."""
    from repro.service import tariff_by_name, workload_by_name

    requests = workload_by_name(
        args.workload, args.jobs, day_s=args.day, seed=args.seed,
        size_scale=args.day / 86400.0, dataset_pool=args.dataset_pool,
    )
    return requests, tariff_by_name(args.tariff, period_s=args.day)


def _unknown(*checks: tuple[str, str, Collection[str]]) -> bool:
    """Report the first ``(what, value, known)`` whose ``value`` is not
    one of the ``known`` names on stderr; ``True`` if there was one
    (the caller exits 2)."""
    for what, value, known in checks:
        if value not in known:
            print(f"unknown {what} {value!r}; known: "
                  f"{', '.join(sorted(known))}", file=sys.stderr)
            return True
    return False


def _write_json(path: Path, text: str, what: str) -> None:
    """Write the JSON document ``text`` to ``path``, or to stdout when
    ``path`` is ``-``."""
    if str(path) == "-":
        sys.stdout.write(text + "\n")
    else:
        path.write_text(text + "\n")
        print(f"{what} written to {path}")


def _is_testbed_file(name: str) -> bool:
    """Whether ``-t`` names a testbed definition file, not a built-in."""
    candidate = Path(name)
    return candidate.suffix == ".json" or candidate.is_file()


def _resolve_testbed(name: str) -> Optional[Testbed]:
    """A built-in testbed by name, or a JSON definition by path.

    An unknown name, or a file that cannot be read or is not a testbed
    definition, is reported as one line on stderr and gives ``None``
    (the caller exits 2).
    """
    if not _is_testbed_file(name):
        if _unknown(("testbed", name.strip().lower(),
                     {known.name.lower() for known in ALL_TESTBEDS})):
            return None
        return testbed_by_name(name)
    from repro.testbeds.io import load_testbed

    try:
        return load_testbed(Path(name))
    except OSError as exc:
        problem = exc.strerror or str(exc)
    except json.JSONDecodeError as exc:
        problem = f"not valid JSON ({exc})"
    except KeyError as exc:
        problem = f"missing field {exc}"
    except (AttributeError, TypeError, ValueError) as exc:
        # AttributeError: a section of the wrong JSON type (a list
        # where an object belongs) has no ``.get``
        problem = f"invalid definition ({exc})"
    print(f"cannot load testbed {name!r}: {problem}", file=sys.stderr)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except _FlagRangeError as exc:
        print(exc, file=sys.stderr)
        return 2
    if getattr(args, "testbed", None) is not None:
        # every command's ``-t`` is resolved (and checked) here, once
        args.testbed = _resolve_testbed(args.testbed)
        if args.testbed is None:
            return 2
    handler = {
        "testbeds": _cmd_testbeds,
        "dataset": _cmd_dataset,
        "transfer": _cmd_transfer,
        "sweep": _cmd_sweep,
        "sla": _cmd_sla,
        "figures": _cmd_figures,
        "advise": _cmd_advise,
        "fleet": _cmd_fleet,
        "service": _cmd_service,
        "fleet-service": _cmd_fleet_service,
        "chaos": _cmd_chaos,
        "topo": _cmd_topo,
        "workloads": _cmd_workloads,
        "pareto": _cmd_pareto,
        "history": _cmd_history,
        "report": _cmd_report,
        "lint": _cmd_lint,
        "validate": _cmd_validate,
    }[args.command]
    return handler(args)


def _cmd_testbeds(args: argparse.Namespace) -> int:
    print(figure_renderers.render_testbed_specs())
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    testbed = args.testbed
    print(testbed.dataset().describe())
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    testbed = args.testbed
    want_trace = args.trace is not None or args.sparkline
    with engine_options(record_trace=want_trace):
        outcome = run_algorithm(testbed, args.algorithm, args.max_channels)
    print(outcome.summary())
    if outcome.final_concurrency is not None:
        print(f"  final concurrency: {outcome.final_concurrency}")
    print(f"  efficiency: {outcome.efficiency:.4f} Mbps/J")
    trace = outcome.extra.get("trace", [])
    if args.sparkline and trace:
        print(render_trace(trace))
    if args.trace is not None and trace:
        save_trace_csv(trace, args.trace)
        print(f"  trace written to {args.trace}")
    if args.json is not None:
        outcome.extra.pop("trace", None)  # traces go to CSV, not JSON
        save_outcomes_json([outcome], args.json)
        print(f"  outcome written to {args.json}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    testbed = args.testbed
    kwargs = {}
    if args.algorithms:
        kwargs["algorithms"] = args.algorithms
    if args.levels:
        kwargs["levels"] = args.levels
    sweep = concurrency_sweep(testbed, **kwargs)
    print(figure_renderers.render_concurrency_figure(sweep))
    if args.json is not None:
        outcomes = [o for series in sweep.series.values() for o in series]
        save_outcomes_json(outcomes, args.json)
        print(f"\nresults written to {args.json}")
    return 0


def _cmd_sla(args: argparse.Namespace) -> int:
    testbed = args.testbed
    records = sla_sweep(testbed, targets_pct=args.targets)
    print(figure_renderers.render_sla_figure(testbed.name, records))
    return 0


_FIGURES = {
    "fig01": lambda: figure_renderers.render_testbed_specs(),
    "fig02": lambda: _concurrency_figure("xsede"),
    "fig03": lambda: _concurrency_figure("futuregrid"),
    "fig04": lambda: _concurrency_figure("didclab"),
    "fig05": lambda: _sla_figure("xsede"),
    "fig06": lambda: _sla_figure("futuregrid"),
    "fig07": lambda: _sla_figure("didclab"),
    "fig08": lambda: figure_renderers.render_device_model_curves(),
    "fig09": lambda: figure_renderers.render_topologies(
        [xsede_topology(), futuregrid_topology(), didclab_topology()]
    ),
    "fig10": lambda: figure_renderers.render_decomposition(
        [energy_decomposition(tb) for tb in ALL_TESTBEDS]
    ),
    "table1": lambda: figure_renderers.render_table1(),
}


def _concurrency_figure(name: str) -> str:
    testbed = testbed_by_name(name)
    sweep = concurrency_sweep(testbed)
    brute = brute_force_sweep(testbed)
    return (
        figure_renderers.render_concurrency_figure(sweep)
        + "\n\n"
        + figure_renderers.render_efficiency_panel(sweep, brute)
    )


def _sla_figure(name: str) -> str:
    testbed = testbed_by_name(name)
    return figure_renderers.render_sla_figure(testbed.name, sla_sweep(testbed))


def _cmd_figures(args: argparse.Namespace) -> int:
    names = list(args.names)
    if not names or names == ["all"]:
        names = list(_FIGURES)
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"known: {', '.join(_FIGURES)}", file=sys.stderr)
        return 2
    for name in names:
        print(f"===== {name} =====")
        print(_FIGURES[name]())
        print()
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import advise
    from repro.datasets.presets import WORKLOAD_PRESETS

    testbed = args.testbed
    if args.workload is not None:
        if _unknown(("workload", args.workload, WORKLOAD_PRESETS)):
            return 2
        dataset = WORKLOAD_PRESETS[args.workload]()
    else:
        dataset = testbed.dataset()
    print(dataset.describe())
    print(advise(testbed, dataset, args.max_channels).render())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.analysis.projection import JobClass, annual_projection, render_projection
    from repro.service.tariff import TARIFF_PRESETS, tariff_by_name

    testbed = args.testbed
    if _unknown(("tariff", args.tariff, TARIFF_PRESETS)):
        return 2
    try:
        job = JobClass(
            "paper-dataset",
            testbed.dataset_factory,
            jobs_per_day=args.jobs_per_day,
            sla_level=args.sla,
            start_hour=args.start_hour,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    reports = annual_projection(testbed, [job], tariff=tariff_by_name(args.tariff))
    clock = (
        f", starting {args.start_hour:g}:00 on the {args.tariff} tariff"
        if args.start_hour is not None
        else f" ({args.tariff} tariff)"
    )
    print(f"{args.jobs_per_day:g} jobs/day of {testbed.dataset().describe()}{clock}")
    print(render_projection(reports))
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    """One day of tenant traffic through the scheduling service."""
    from repro.obs.observer import Observer, render_events
    from repro.service import (
        POLICY_PRESETS,
        ServiceSimulator,
        TARIFF_PRESETS,
        WORKLOAD_PRESETS,
        policy_by_name,
    )
    from repro.topo import PLACEMENT_POLICIES

    if _unknown(
        ("workload", args.workload, WORKLOAD_PRESETS),
        ("policy", args.policy, POLICY_PRESETS),
        ("tariff", args.tariff, TARIFF_PRESETS),
        ("placement", args.placement, PLACEMENT_POLICIES),
    ):
        return 2
    testbed = args.testbed
    observer = Observer()
    try:
        requests, tariff = _day_requests(args)
        simulator = ServiceSimulator(
            testbed,
            policy=policy_by_name(args.policy),
            tariff=tariff,
            max_per_tenant=args.max_per_tenant,
            observer=observer,
            **_day_knobs(args),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = simulator.run(requests)
    print(report.render())
    if args.events:
        print()
        print(render_events(observer.events))
    if args.json is not None:
        _write_json(args.json, json.dumps(report.to_dict(), indent=2), "report")
    return 0


def _cmd_fleet_service(args: argparse.Namespace) -> int:
    """One day of tenant traffic across a sharded fleet of links."""
    from repro.obs.observer import Observer, render_events
    from repro.service import (
        FleetContext,
        FleetSimulator,
        POLICY_PRESETS,
        ROUTING_POLICIES,
        TARIFF_PRESETS,
        WORKLOAD_PRESETS,
        policy_by_name,
    )
    from repro.topo import PLACEMENT_POLICIES

    if _unknown(
        ("workload", args.workload, WORKLOAD_PRESETS),
        ("policy", args.policy, POLICY_PRESETS),
        ("tariff", args.tariff, TARIFF_PRESETS),
        ("routing", args.routing, ROUTING_POLICIES),
        ("placement", args.placement, PLACEMENT_POLICIES),
    ):
        return 2
    testbed = args.testbed
    warm = None
    if args.context is not None and args.context.exists():
        warm = FleetContext.load(args.context)
        print(f"warm-start context loaded: {len(warm)} plan entries "
              f"({warm.source or 'unlabelled'})")
    observer = Observer()
    try:
        requests, tariff = _day_requests(args)
        fleet = FleetSimulator(
            testbed,
            policy=policy_by_name(args.policy),
            tariff=tariff,
            shards=args.shards,
            routing=args.routing,
            steal_threshold=args.steal_threshold if args.steal_threshold > 0 else None,
            max_per_tenant=args.max_per_tenant,
            observer=observer,
            workers=args.workers,
            warm_context=warm,
            **_day_knobs(args),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = fleet.run(requests)
    print(report.render())
    if args.context is not None and fleet.last_context is not None:
        fleet.last_context.save(args.context)
        print(f"warm-start context saved to {args.context} "
              f"({len(fleet.last_context)} plan entries)")
    if args.events:
        print()
        print(render_events(observer.events))
    if args.json is not None:
        _write_json(args.json, json.dumps(report.to_dict(), indent=2), "report")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault scenarios against the service layer + SLO verdicts."""
    from repro.chaos import SCENARIO_PRESETS, day_simulator, pack_to_json, run_pack
    from repro.obs.observer import Observer, render_events
    from repro.service import (
        POLICY_PRESETS,
        TARIFF_PRESETS,
        WORKLOAD_PRESETS,
        policy_by_name,
    )
    from repro.topo import PLACEMENT_POLICIES

    scenarios = (
        sorted(SCENARIO_PRESETS) if args.scenario == "all"
        else [args.scenario]
    )
    policies = (
        sorted(POLICY_PRESETS) if args.policy == "all" else [args.policy]
    )
    if _unknown(
        ("workload", args.workload, WORKLOAD_PRESETS),
        ("tariff", args.tariff, TARIFF_PRESETS),
        ("placement", args.placement, PLACEMENT_POLICIES),
        *(("scenario", scenario, SCENARIO_PRESETS) for scenario in scenarios),
        *(("policy", policy, POLICY_PRESETS) for policy in policies),
    ):
        return 2
    testbed = args.testbed
    try:
        # every cell shares these knobs: check them once, up front
        _requests, tariff = _day_requests(args)
        day_simulator(
            testbed, shards=args.shards, workers=args.workers,
            policy=policy_by_name(policies[0]), tariff=tariff,
            **_day_knobs(args),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    observer = Observer()
    config = dict(
        scenarios=scenarios, policies=policies,
        jobs=args.jobs, day_s=args.day, seed=args.seed,
        workload=args.workload, shards=args.shards, workers=args.workers,
        dataset_pool=args.dataset_pool, **_day_knobs(args),
    )
    results = run_pack(
        testbed=testbed, tariff=tariff, observer=observer, **config
    )
    if args.check:
        rerun = run_pack(testbed=testbed, tariff=tariff, **config)
        if pack_to_json(results, sort_keys=True) != pack_to_json(
            rerun, sort_keys=True
        ):
            print("DETERMINISM CHECK FAILED: same-seed rerun diverged",
                  file=sys.stderr)
            return 1
        print(f"determinism check passed: {len(results)} cells "
              "byte-identical on rerun")
    for result in results:
        print(result.render())
        print()
    failed = [result for result in results if not result.passed]
    print(f"pack verdict: {len(results) - len(failed)}/{len(results)} "
          f"cells passed"
          + (f" ({', '.join(f'{r.scenario.name}/{r.policy}' for r in failed)}"
             " breached)" if failed else ""))
    if args.events:
        print()
        print(render_events(observer.events))
    if args.json is not None:
        _write_json(args.json, pack_to_json(results, indent=2), "pack")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    """Describe a topology and water-fill a synthetic flow set."""
    from repro import units
    from repro.topo import (
        FlowDemand,
        PLACEMENT_POLICIES,
        Placer,
        allocate,
        build_topology,
    )

    if _unknown(("placement", args.placement, PLACEMENT_POLICIES)):
        return 2
    if args.flows < 1:
        print("--flows must be >= 1", file=sys.stderr)
        return 2
    testbed = args.testbed
    bandwidth = testbed.path.bandwidth

    def run_once() -> dict:
        """One placement + allocation round (fresh seeded state)."""
        topology = build_topology(args.topology, bandwidth=bandwidth)
        placer = Placer(topology, args.placement, seed=args.seed)
        demands = []
        placements = {}
        for i in range(args.flows):
            flow = f"flow-{i:03d}"
            path = placer.place(flow)
            placements[flow] = path.name
            demands.append(FlowDemand(flow, path.bottlenecks, bandwidth))
        result = allocate(topology, demands)
        return {
            "topology": topology.to_dict(),
            "placement": args.placement,
            "seed": args.seed,
            "flows": {
                demand.flow: {
                    "path": placements[demand.flow],
                    "demand": demand.demand,
                    "rate": result.rates[demand.flow],
                    "bound_by": result.binding[demand.flow],
                }
                for demand in demands
            },
            "bottlenecks": {
                name: {
                    "capacity": topology.capacity(name),
                    "load": result.bottleneck_load.get(name, 0.0),
                    "flows": result.bottleneck_flows.get(name, 0),
                }
                for name in topology.bottlenecks
            },
            "rounds": result.rounds,
        }

    payload = run_once()
    if args.check:
        rerun = run_once()
        if json.dumps(payload, sort_keys=True) != json.dumps(
            rerun, sort_keys=True
        ):
            print("DETERMINISM CHECK FAILED: same-seed rerun diverged",
                  file=sys.stderr)
            return 1
        over = [
            name
            for name, cell in payload["bottlenecks"].items()
            if cell["load"] > cell["capacity"] * (1 + 1e-9)
        ]
        if over:
            print("CAPACITY CHECK FAILED: over-subscribed bottlenecks: "
                  f"{', '.join(over)}", file=sys.stderr)
            return 1
        print("checks passed: deterministic rerun, no bottleneck "
              "over-subscribed")

    topology = build_topology(args.topology, bandwidth=bandwidth)
    print(topology.render())
    print(f"\n{args.flows} flows placed by {args.placement} "
          f"(seed {args.seed}), each demanding "
          f"{units.to_gbps(bandwidth):.2f} Gbps; water-fill converged in "
          f"{payload['rounds']} round(s)")
    print(f"  {'flow':<10s} {'path':<22s} {'rate Gbps':>10s}  bound by")
    for flow, cell in payload["flows"].items():
        print(f"  {flow:<10s} {cell['path']:<22s} "
              f"{units.to_gbps(cell['rate']):>10.2f}  "
              f"{cell['bound_by'] or '-'}")
    print("  bottleneck load:")
    for name, cell in payload["bottlenecks"].items():
        if cell["flows"] == 0:
            continue
        print(f"  {name:<14s} {units.to_gbps(cell['load']):7.2f} / "
              f"{units.to_gbps(cell['capacity']):.2f} Gbps "
              f"({cell['flows']} flows)")
    if args.json is not None:
        _write_json(args.json, json.dumps(payload, indent=2), "allocation")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.datasets.presets import WORKLOAD_PRESETS

    for name, factory in WORKLOAD_PRESETS.items():
        print(f"{name:<10s} {factory().describe()}")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    """Sweep the testbed, then classify every configuration."""
    from repro.harness.pareto import pareto_frontier, render_frontier

    testbed = args.testbed
    kwargs = {"levels": args.levels} if args.levels else {}
    sweep = concurrency_sweep(testbed, **kwargs)
    outcomes, seen = [], set()
    for algorithm, series in sweep.series.items():
        for outcome in series:
            key = (algorithm, outcome.max_channels)
            if key not in seen:
                seen.add(key)
                outcomes.append(outcome)
    print(render_frontier(pareto_frontier(outcomes)))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """Summarize (or query) a JSONL result store."""
    from repro.harness.store import ResultStore

    store = ResultStore(args.store)
    if args.best is not None:
        best = store.best(args.best)
        if best is None:
            print("(empty store)")
            return 1
        print(best.summary())
        return 0
    print(store.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Write the evaluation report, or inspect the observability layer."""
    if args.events or args.metrics:
        return _cmd_report_observe(args)
    from repro.harness.report import write_report

    path = write_report(args.output, quick=args.quick)
    print(f"report written to {path}")
    return 0


def _cmd_report_observe(args: argparse.Namespace) -> int:
    """``report --events`` / ``report --metrics``: run one observed
    transfer (or, with ``--metrics --store``, merge the archived
    per-cell metric summaries) and print the result."""
    from repro.obs import Observer, merge_summaries, render_events, render_metrics

    if args.store is not None:
        if args.events:
            print("--events cannot be read from a store: event streams "
                  "stay process-local; only metric summaries are archived "
                  "(use --metrics --store)", file=sys.stderr)
            return 2
        from repro.harness.store import ResultStore

        summaries = ResultStore(args.store).metrics_summaries(args.campaign)
        if not summaries:
            print("(no archived metrics tags"
                  + (f" for campaign {args.campaign!r}" if args.campaign else "")
                  + f" in {args.store})")
            return 1
        merged = merge_summaries(summaries)
        print(f"{len(summaries)} archived cell summaries from {args.store}")
        print(render_metrics(merged))
        if args.json is not None:
            args.json.write_text(json.dumps(merged, indent=2) + "\n")
            print(f"metrics written to {args.json}")
        return 0

    testbed = args.testbed
    observer = Observer()
    with engine_options(observe=observer):
        outcome = run_algorithm(testbed, args.algorithm, args.max_channels)
    print(outcome.summary())
    print()
    if args.events:
        print(render_events(observer.events, kind=args.kind))
        if args.json is not None:
            args.json.write_text(
                json.dumps(observer.events.to_dicts(), indent=2) + "\n"
            )
            print(f"\nevents written to {args.json}")
    else:
        print(render_metrics(observer.summary()))
        if args.json is not None:
            args.json.write_text(json.dumps(observer.summary(), indent=2) + "\n")
            print(f"\nmetrics written to {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the domain linter (see :mod:`repro.lint`)."""
    from repro.lint.cli import run as run_lint

    return run_lint(args)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.power.coefficients import cpu_coefficient

    ok = True
    expected = {1: 0.273, 2: 0.224, 4: 0.192}
    for n, value in expected.items():
        got = cpu_coefficient(n)
        status = "ok" if abs(got - value) < 1e-9 else "MISMATCH"
        if status != "ok":
            ok = False
        print(f"Eq.2 C_cpu,{n} = {got:.3f} (expected {value:.3f}) {status}")
    print(figure_renderers.render_table1())
    print("validate:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
