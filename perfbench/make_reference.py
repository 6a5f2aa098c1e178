"""Regenerate ``reference.json``: the expected fingerprint of each
workload's day for a range of seeds.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --seeds 0:100
    python3 perfbench/make_reference.py --seeds 0:100 --workload topo-fleet

Entries for other workloads and seeds are kept. Run it only when the
simulator's outputs are meant to change; ``test_perfbench.py`` checks
the fast driver that produced the entries against the dt-grid driver.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0:100",
                        help="half-open seed range START:STOP")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="workload to regenerate (repeatable; default all)")
    args = parser.parse_args(argv)
    start, stop = (int(part) for part in args.seeds.split(":"))
    table = (
        json.loads(REFERENCE.read_text())
        if REFERENCE.exists() else {"workloads": {}}
    )
    for name in args.workload or sorted(workloads.WORKLOADS):
        spec = workloads.WORKLOADS[name]
        entries = table["workloads"].setdefault(name, {})
        for seed in range(start, stop):
            requests = spec.make_requests(seed)
            workloads.reset_caches()
            report = spec.make_simulator().run(requests)
            problems = workloads.invariants(report, requests)
            if problems:
                print(f"{name} seed {seed}: {problems[:3]}", file=sys.stderr)
                return 1
            entries[str(seed)] = workloads.fingerprint(report)
            print(f"{name} seed {seed}: ok", flush=True)
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
