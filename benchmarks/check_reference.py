"""Replay committed perfbench reference days and compare fingerprints.

Usage (from the repository root)::

    python benchmarks/check_reference.py
    python benchmarks/check_reference.py --workload chunky-day --seeds 0:10

Every seed ``perfbench/reference.json`` records for a workload is run
through ``perfbench/workloads.py`` (``make_requests``, ``fingerprint``,
``compare``): bit-equal job counts, bytes and timestamps, energy and
cost within ``REL_TOL``. Both files are only read. Prints one line per
day and exits 1 on any mismatch. The 300 committed days took about ten
minutes on one core of a shared 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH.parent / "src"))
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="workload to replay (repeatable; default all)")
    parser.add_argument("--seeds", help="half-open seed range START:STOP "
                        "(default: every committed seed)")
    args = parser.parse_args(argv)
    table = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]
    seeds = None
    if args.seeds is not None:
        start, stop = (int(part) for part in args.seeds.split(":"))
        seeds = range(start, stop)
    failures = 0
    for name in args.workload or sorted(workloads.WORKLOADS):
        spec = workloads.WORKLOADS[name]
        entries = table[name]
        for seed in sorted(int(key) for key in entries):
            if seeds is not None and seed not in seeds:
                continue
            requests = spec.make_requests(seed)
            workloads.reset_caches()
            report = spec.make_simulator().run(requests)
            problems = workloads.compare(
                workloads.fingerprint(report), entries[str(seed)]
            )
            failures += bool(problems)
            print(f"{name} seed {seed}: {'; '.join(problems) or 'ok'}", flush=True)
    if failures:
        print(f"{failures} day(s) differ from reference.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
