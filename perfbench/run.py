"""Whole-day service/fleet benchmark with checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chunky-day --seed 1 --seconds 30 --trace 0

One run replays one workload's pre-generated day (see ``workloads.py``)
inline in this process: a discarded warm-up repetition, then timed
repetitions until ``--seconds`` have passed. Every repetition starts
from emptied memo caches and a ``gc.collect()``, and its output
fingerprint is checked against ``reference.json`` (or, for a seed the
reference does not cover, against the warm-up repetition).

``--trace 0`` prints the end-to-end metrics: ``jobs_per_s`` (of the
fastest timed repetition; README.md says why), ``setup_s`` (the fastest
of several fresh-process set-ups spread over the run: import, request
generation, simulator construction) and ``peak_rss_mb``. ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics (``spans.py``), tracing overhead and coverage; the spans of the
last traced repetition are written to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (jobs) and ``metrics``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

#: Set-ups per run, this process's included: one fresh process after
#: each repetition, and more at the end if the run was shorter.
MIN_SETUPS = 8
#: Timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 5

SETUP_KEYS = ("import_s", "requests_s", "build_s")


def pin_to_one_cpu() -> None:
    """Keep this process (and the set-up probes it starts) on one CPU.

    Left free, the scheduler moves the single simulation thread between
    CPUs, and on a shared 2-vCPU machine the two ran the same day about
    20% apart. The highest-numbered allowed CPU is used, since CPU 0
    usually takes more of the host's interrupt work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def set_up(workload: str, seed: int):
    """Import the simulator, generate the day's requests and build the
    simulator; returns them with the time each step took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    imported = time.perf_counter()
    spec = workloads.WORKLOADS[workload]
    requests = spec.make_requests(seed)
    generated = time.perf_counter()
    simulator = spec.make_simulator()
    built = time.perf_counter()
    times = {
        "import_s": imported - start,
        "requests_s": generated - imported,
        "build_s": built - generated,
    }
    return workloads, spec, requests, simulator, times


def probe_set_up(workload: str, seed: int) -> dict:
    """Set up once more in a fresh process and return its times."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def fastest_set_up(setups: list[dict], workload: str, seed: int) -> dict:
    """Top ``setups`` up to ``MIN_SETUPS`` and return the fastest one.

    The host's speed swings by up to 45% in phases of about a second
    (README.md, Steadiness); the fastest of several set-ups spread over
    the run is the least-disturbed one; their median would read
    whichever phase most of them landed in.
    """
    while len(setups) < MIN_SETUPS:
        setups.append(probe_set_up(workload, seed))
    return min(setups, key=lambda s: sum(s.values()))


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """Checks each repetition's output and counts attempted and failed
    jobs. The expected fingerprint is the committed reference for this
    seed, else the warm-up repetition's (which must pass the invariants)."""

    def __init__(self, workloads, spec, seed: int, requests) -> None:
        self.workloads = workloads
        self.requests = requests
        table = json.loads(REFERENCE.read_text())["workloads"].get(spec.name, {})
        self.expected = table.get(str(seed))
        self.source = "reference.json" if self.expected else "warm-up"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, report, label: str) -> None:
        wl = self.workloads
        got = wl.fingerprint(report)
        problems = wl.invariants(report, self.requests)
        if self.expected is None and not problems:
            self.expected = got
        if self.expected is not None:
            problems += wl.compare(got, self.expected)
        self.attempted += got["jobs"]
        if problems:
            self.failed += got["jobs"]
            self.problems += [f"{label}: {p}" for p in problems[:5]]


def repetition(workloads, simulator, requests):
    """One whole day from emptied caches; returns (report, wall seconds)."""
    workloads.reset_caches()
    gc.collect()
    start = time.perf_counter()
    report = simulator.run(requests)
    return report, time.perf_counter() - start


def layer_metrics(workloads, spans_mod, tracer, report, wall: float) -> dict:
    """Per-layer numbers of one traced repetition."""
    seconds, calls = spans_mod.self_times(tracer.spans)
    sims = list(tracer.simulators.values())
    macro = sum(s.macro_rounds for s in sims)
    fixed = sum(s.fixed_rounds for s in sims)
    dts = sum(s.macro_stepped_dts for s in sims)
    rounds = macro + fixed
    plan_hit, alloc_hit = workloads.cache_hit_fracs()
    jobs = workloads.job_results(report)
    return {
        "plan.calls": calls.get("plan", 0),
        "plan.self_s": seconds.get("plan", 0.0),
        "plan.hit_frac": plan_hit,
        "sched.calls": calls.get("sched", 0),
        "sched.self_s": seconds.get("sched", 0.0),
        "sched.deferred": sum(1 for job in jobs if job.deferred),
        "service.events": calls.get("multi.run_until", 0) + calls.get("multi.step", 0),
        "service.self_s": seconds.get("service", 0.0),
        "tariff.calls": calls.get("tariff", 0),
        "tariff.self_s": seconds.get("tariff", 0.0),
        "multi.rounds": rounds,
        "multi.macro_round_frac": macro / rounds if rounds else 0.0,
        "multi.dts_per_round": (dts + fixed) / rounds if rounds else 0.0,
        "multi.self_s": sum(v for k, v in seconds.items() if k.startswith("multi.")),
        "engine.advance_calls": calls.get("engine.advance_k1", 0)
        + calls.get("engine.advance_macro", 0),
        "engine.advance_k1_s": seconds.get("engine.advance_k1", 0.0),
        "engine.advance_macro_s": seconds.get("engine.advance_macro", 0.0),
        "engine.prepare_s": seconds.get("engine.prepare", 0.0),
        "engine.horizon_s": seconds.get("engine.horizon", 0.0),
        "engine.demand_s": seconds.get("engine.demand", 0.0),
        "alloc.refill_calls": calls.get("alloc", 0),
        "alloc.refill_s": seconds.get("alloc", 0.0),
        "alloc.hit_frac": alloc_hit,
        "place.calls": calls.get("place", 0),
        "place.self_s": seconds.get("place", 0.0),
        "fleet.route_s": seconds.get("fleet.route", 0.0),
        "fleet.merge_s": seconds.get("fleet", 0.0),
        "fleet.steals": getattr(report, "work_steals", 0),
        "trace.spans": len(tracer.spans),
        "trace.coverage": sum(seconds.values()) / wall,
    }


def write_spans(path: Path, spans) -> None:
    """One JSON array per line: [index, parent, layer, start_s, end_s]."""
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as out:
        for index, (name, start, end, parent) in enumerate(spans):
            out.write(json.dumps([index, parent, name, start, end]) + "\n")


UNITS = {
    "_s": "s", "calls": "count", "_frac": "ratio", "rounds": "count",
    "events": "count", "deferred": "count", "steals": "count",
    "spans": "count", "dts_per_round": "dts/round", "coverage": "ratio",
    "overhead": "ratio",
}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: simulator source not found at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()

    workloads, spec, requests, simulator, setup0 = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup0))
        return 0

    import numpy

    print(json.dumps({"header": {
        "workload": spec.name, "seed": args.seed, "jobs": spec.jobs,
        "day_s": spec.day_s, "shape": spec.shape,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
    }}), flush=True)

    checker = Checker(workloads, spec, args.seed, requests)
    report, _ = repetition(workloads, simulator, requests)
    checker.check(report, "warm-up")
    setups = [setup0]

    deadline = time.perf_counter() + args.seconds
    rates: list[float] = []
    traced_rates: list[float] = []
    if args.trace == 0:
        while len(rates) < MIN_REPS or time.perf_counter() < deadline:
            report, wall = repetition(workloads, simulator, requests)
            checker.check(report, f"rep {len(rates)}")
            rates.append(len(requests) / wall)
            setups.append(probe_set_up(spec.name, args.seed))
        fastest_setup = fastest_set_up(setups, spec.name, args.seed)
        metrics = {
            "jobs_per_s": max(rates),
            "setup_s": sum(fastest_setup.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"jobs_per_s": "jobs/s", "setup_s": "s", "peak_rss_mb": "MiB"}
    else:
        import spans as spans_mod

        tracer = spans_mod.Tracer()
        layers: list[dict] = []
        while not layers or time.perf_counter() < deadline:
            report, wall = repetition(workloads, simulator, requests)
            checker.check(report, f"untraced rep {len(rates)}")
            rates.append(len(requests) / wall)
            tracer.reset()
            with spans_mod.traced(tracer):
                report, wall = repetition(workloads, simulator, requests)
            checker.check(report, f"traced rep {len(layers)}")
            traced_rates.append(len(requests) / wall)
            layers.append(layer_metrics(workloads, spans_mod, tracer, report, wall))
            setups.append(probe_set_up(spec.name, args.seed))
        fastest_setup = fastest_set_up(setups, spec.name, args.seed)
        write_spans(OUT_DIR / f"{spec.name}-seed{args.seed}.spans.jsonl.gz", tracer.spans)
        tracer.reset()
        metrics = {f"setup.{key}": fastest_setup[key] for key in SETUP_KEYS}
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        metrics["trace.overhead"] = max(rates) / max(traced_rates) - 1.0
        for name in spec.must_be_zero:
            if metrics[name] != 0:
                checker.problems.append(f"prediction: {name} = {metrics[name]!r}, expected 0")
        for name in spec.must_be_positive:
            if not metrics[name] > 0:
                checker.problems.append(f"prediction: {name} = {metrics[name]!r}, expected > 0")
        units = {name: unit_of(name) for name in metrics}

    print(json.dumps({"expected_fingerprint": checker.source, "samples": {
        "jobs_per_s": rates,
        "traced_jobs_per_s": traced_rates,
        "setup_s": [sum(s.values()) for s in setups],
    }}))
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
