#!/usr/bin/env python3
"""Serial, closed-loop benchmark of the coflownet solve pipeline.

Run from the root of a coflownet checkout:

    python3 perfbench/run.py --workload slot-single-gscale40 --seed 1 --seconds 40 --trace 0

One client submits one request at a time, each only after the previous
verified schedule came back, in whole passes over the workload's corpus. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays every request through the traced replica as well and
prints the per-layer metrics. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON report of the run.

The library is imported from ``src/`` of the working directory and
nowhere else: without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (default 1; seed 7 is kept back for confirming claimed gains)",
    )
    parser.add_argument(
        "--seconds", type=float, default=40.0,
        help="time budget: as many whole passes over the corpus as fit, at least one",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    # serial by construction: no BLAS or OpenMP worker threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path.cwd() / "src"
    if not (src / "coflownet" / "__init__.py").is_file():
        print(f"error: no coflownet sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness  # numpy, scipy and coflownet load here, inside the set-up time

    return harness.main(args, src, import_s=time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
