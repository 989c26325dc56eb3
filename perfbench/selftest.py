#!/usr/bin/env python3
"""Small-size self-test of the benchmark, about half a minute.

Run from the root of a coflownet checkout:

    python3 perfbench/selftest.py

It checks, in-process on a one-instance corpus per workload, that
- every workload, untraced and traced, gives a result with exactly the
  keys correct/attempted/failed/metrics, passes its correctness gate, and
  reports every metric BENCHMARK.json declares, with that metric's unit;
- the gate trips on every request when the reference objectives are off
  by 1e-4 relative, and names the reason;
and, in a subprocess, that in a directory holding only BENCHMARK.json and
the benchmark, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
TIMEOUT_S = 180


class SelfTestFailure(AssertionError):
    pass


def check(condition, message) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_result(result: dict) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, result["attempted"])
    check(isinstance(result["failed"], int), result["failed"])
    json.dumps(result)


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared}, f"{where}: {sorted(metrics)}")
    for m in declared:
        entry = metrics[m["name"]]
        check(entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']!r}")
        value = entry["value"]
        check(isinstance(value, (int, float)) and value == value, f"{where}: {m['name']} = {value!r}")


def run_small(harness, workload, reference, trace: int) -> tuple[dict, str]:
    """One in-process run of a single pass; returns its result and its
    standard error."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        _, result = harness.bench(workload, reference, seed=1, seconds=0.0, trace=trace, import_s=0.0)
    check_result(result)
    return result, stderr.getvalue()


def main() -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    import harness
    from workloads import WORKLOADS

    bench = json.loads(Path("BENCHMARK.json").read_text())
    for name in (w["name"] for w in bench["workloads"]):
        workload = dataclasses.replace(WORKLOADS[name], corpus=1)
        reference = harness.load_reference(name)
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{name} --trace {trace}"
            result, stderr = run_small(harness, workload, reference, trace)
            check(result["correct"] and result["failed"] == 0, f"{where}: {stderr[-2000:]}")
            check_metrics(result, declared, where)
            print(f"ok   {where}: {len(declared)} metrics, {result['attempted']} request(s)")

    shop = dataclasses.replace(WORKLOADS["shop-oracle"], corpus=3)
    wrong = {
        seed: [v * (1 + 1e-4) for v in values]
        for seed, values in harness.load_reference(shop.name).items()
    }
    result, stderr = run_small(harness, shop, wrong, trace=0)
    check(not result["correct"] and result["failed"] == result["attempted"], result)
    check("!= reference" in stderr, stderr[-2000:])
    print(f"ok   gate trips on a wrong reference: {result['failed']}/{result['attempted']} failed")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "shop-oracle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print(f"ok   without the library: exit {proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
