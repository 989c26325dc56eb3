#!/usr/bin/env python3
"""Record the LP objective of every corpus instance into reference.json.

Each instance is solved by the workload's own ``run_pipeline`` calls.

Run from the root of a coflownet checkout:

    python3 perfbench/record_reference.py [--workload NAME ...]

The correctness gate compares each run's LP objectives against this file
to 1e-6 relative, so re-record it only at a commit whose objectives are
trusted; a change that is meant to keep the objectives must leave the
file alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"


def main(argv=None) -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    from workloads import WORKLOADS, run_calls

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    data = json.loads(PATH.read_text()) if PATH.exists() else {"format": 1, "objectives": {}}
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        table = {}
        for seed in range(workload.corpus):
            table[str(seed)] = [r.lp_objective for r in run_calls(workload, workload.make(seed))]
        data["objectives"][name] = table
        print(f"{name}: {len(table)} instances", file=sys.stderr)
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
