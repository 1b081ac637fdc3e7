"""Record the committed output digests the benchmark checks sweeps against.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/record_digests.py --seeds 0-10 7919

For every workload and seed it sweeps the seed's input once in a fresh
interpreter and stores the output digest in ``perfbench/digests.json``.
A change that alters any digest changes scheduling behaviour, not speed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from child import DIGESTS
from run import ROOT, spawn


def _seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-10")
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in args.workloads or sorted(WORKLOADS):
        for seed in _seeds(args.seeds):
            deadline = time.monotonic() + 3600.0
            reply = spawn("digest", name, seed, 0.0, deadline)
            table.setdefault(name, {})[str(seed)] = reply["digest"]
            print(name, seed, reply["digest"], flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
