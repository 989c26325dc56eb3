"""The measuring loop, the correctness gate and the metrics of one run.

A request is one instance solved by each of the workload's
``run_pipeline`` calls. Its latency is the time of those calls and
nothing else; the correctness gate and, when tracing, the traced replica
run outside it. Every request passes the gate or counts as failed, with
its reason printed to standard error. A run is made of whole passes over
the workload's corpus, so every run times the same set of instances.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import coflownet as cn
from coflownet.solver import check_solution
from tracing import LAYER_SPANS, Spans, traced_call
from workloads import OPTIONS, WORKLOADS, requests, run_calls

#: Set-up (instance generation plus warm-up) is repeated this often; the
#: median is reported.
SETUP_REPEATS = 3
#: Relative tolerance between a run's LP objective and the recorded one.
REFERENCE_RTOL = 1e-6
#: Where the traced run writes its spans, relative to the checkout root.
OUT_DIR = Path(".perfbench_out")
#: The recorded LP objective of every corpus instance, per workload.
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END_UNITS = {
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "throughput_inst_per_s": "1/s",
    "sched_lp_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "lp.horizon_s": "s",
    "lp.build_s": "s",
    "lp.extract_s": "s",
    "lp.rows": "count",
    "lp.cols": "count",
    "lp.nnz": "count",
    "lp.nnz.dem": "count",
    "lp.nnz.cum": "count",
    "lp.nnz.fin": "count",
    "lp.nnz.cap": "count",
    "lp.nnz.flow": "count",
    "lp.horizon_bound": "count",
    "lp.horizon_used": "count",
    "lp.horizon_used_ratio": "ratio",
    "solver.solve_s": "s",
    "solver.check_s": "s",
    "rounding.stretch_s": "s",
    "rounding.trial_s": "s",
    "rounding.expand_s": "s",
    "rounding.trials": "count",
    "rounding.best_over_mean": "ratio",
    "model.as_fractional_s": "s",
    "verify.schedule_s": "s",
    "openshop.oracle_s": "s",
    "openshop.exact_gap_max": "ratio",
    "generate.instance_s": "s",
    "pipeline.request_s": "s",
    "pipeline.other_s": "s",
    "pipeline.trace_overhead_s": "s",
}

#: Row-name prefixes counted into each ``lp.nnz.<family>`` metric.
NNZ_FAMILIES = {
    "dem": ("dem",),
    "cum": ("cum",),
    "fin": ("fin",),
    "cap": ("cap",),
    "flow": ("src", "snk", "bal"),
}

#: A slot counts as used when some flow fraction in it exceeds this.
USED_SLOT_EPS = 1e-9


def gate(workload, item, results, reference, exact) -> str | None:
    """None when every result of the request is correct, else the reason."""
    expected = reference.get(str(item.seed))
    if expected is None:
        return "no reference objective recorded for this instance"
    for call, result, ref in zip(workload.calls, results, expected):
        violations = cn.verify_schedule(result.schedule, item.instance)
        if violations:
            return f"{call.strategy}: {len(violations)} violation(s), first: {violations[0]}"
        if abs(result.lp_objective - ref) > REFERENCE_RTOL * abs(ref):
            return f"{call.strategy}: LP objective {result.lp_objective!r} != reference {ref!r}"
        if exact is not None:
            message = cn.check_lp_lower_bound(item.instance, result.lp_objective, exact)
            if message:
                return f"{call.strategy}: {message}"
            if result.report.objective < exact - 1e-9:
                return (
                    f"{call.strategy}: schedule objective {result.report.objective!r} "
                    f"below the exact optimum {exact!r}"
                )
    return None


def lp_counts(traced) -> dict[str, float]:
    """Exact LP shape counts of one request, summed over the LPs it solved;
    the horizon counts come from its slot LP."""
    counts = {"lp.rows": 0, "lp.cols": 0, "lp.nnz": 0}
    counts.update({f"lp.nnz.{family}": 0 for family in NNZ_FAMILIES})
    family_of = {prefix: family for family, prefixes in NNZ_FAMILIES.items() for prefix in prefixes}
    for call in traced:
        problem = call.problem
        counts["lp.rows"] += problem.num_rows
        counts["lp.cols"] += problem.num_cols
        for name, cols in zip(problem.row_names, problem.row_cols):
            counts["lp.nnz"] += cols.size
            counts[f"lp.nnz.{family_of[name.split('_', 1)[0]]}"] += cols.size
        if call.slot_lp:
            fractional = call.fractional
            used = 0
            for flows in fractional.fractions:
                for series in flows:
                    busy = np.nonzero(series > USED_SLOT_EPS)[0]
                    if busy.size:
                        used = max(used, int(busy[-1]) + 1)
            counts["lp.horizon_bound"] = fractional.slot_count
            counts["lp.horizon_used"] = used
            counts["lp.horizon_used_ratio"] = used / fractional.slot_count
    return counts


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile. Over k whole passes of a corpus of c
    instances it falls among the k samples of corpus rank ceil(0.9 c),
    whatever k is."""
    ordered = sorted(values)
    return ordered[(9 * len(ordered) + 9) // 10 - 1]


def load_reference(workload_name: str) -> dict[str, list[float]]:
    with open(REFERENCE) as fh:
        return json.load(fh)["objectives"][workload_name]


def thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def set_up(workload, seed: int):
    """Generate every request input and warm the pipeline up, several
    times; returns the inputs, the median set-up time and the median
    generation time per instance."""
    setups, per_instance = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = requests(workload, seed)
        generated = time.perf_counter()
        run_calls(workload, workload.warmup())
        setups.append(time.perf_counter() - start)
        per_instance.append((generated - start) / len(items))
    return items, statistics.median(setups), statistics.median(per_instance)


def _heap_trimmer():
    """glibc's ``malloc_trim``, or a no-op where the C library has none."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    trim = getattr(libc, "malloc_trim", None)
    if trim is None:
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def measure(workload, items, seconds: float, reference, spans: Spans | None) -> list[dict]:
    """The closed loop, in whole passes over the corpus. A pass starts only
    while the passes so far, at their mean duration, leave room for it
    within ``seconds``; the first always runs. Returns one record per
    attempted request."""
    trim_heap = _heap_trimmer()
    records = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for item in items:
            # Free the previous request's memory outside the timed region.
            # Without the trim, the peak memory of identical runs (same
            # inputs, order and hash seed) lands 10% apart, on how earlier
            # requests left the heap. With it, each request faults its pages
            # in afresh, which costs 3% of slot-single-gscale40's median
            # latency (1.23 s against 1.19 s).
            gc.collect()
            trim_heap()
            records.append(attempt(workload, item, len(records), passes, reference, spans))
        passes += 1
    return records


def attempt(workload, item, request: int, pass_: int, reference, spans: Spans | None) -> dict:
    """Time one request, then check it; the record says why it failed, if it did."""
    record = {"request": request, "seed": item.seed, "trial_seed": item.trial_seed, "pass": pass_}
    began = time.perf_counter()
    try:
        results = run_calls(workload, item)
    except Exception as exc:  # any failure of the program counts, none stops the run
        record.update(latency=time.perf_counter() - began, reason=f"{type(exc).__name__}: {exc}")
        return record
    record["latency"] = time.perf_counter() - began
    record["ratios"] = [r.report.objective / r.lp_objective for r in results]
    try:
        if spans is not None:
            record.update(trace_request(workload, item, results, request, spans))
        exact = None
        if item.shop is not None:
            if spans is None:
                exact, _ = cn.open_shop_optimal(item.shop)
            else:
                with spans.span("openshop.oracle", request):
                    exact, _ = cn.open_shop_optimal(item.shop)
            record["exact_gap"] = max(r.report.objective / exact for r in results)
        reason = record.get("reason") or gate(workload, item, results, reference, exact)
    except Exception as exc:  # a crash while checking is a failed request too
        reason = f"{type(exc).__name__} while checking: {exc}"
    if reason:
        record["reason"] = reason
    return record


def trace_request(workload, item, results, request: int, spans: Spans) -> dict:
    """Replay one request through the traced replica and check that it
    reproduces the untraced objectives exactly."""
    out = {}
    try:
        with spans.span("pipeline.request", request) as root:
            traced = [
                traced_call(spans, request, root, item.instance, call, item.trial_seed, OPTIONS)
                for call in workload.calls
            ]
    except cn.SolveFailure as exc:
        return {"reason": f"traced replica: {exc}"}
    for call, result, replica in zip(workload.calls, results, traced):
        if (result.lp_objective, result.report.objective) != (
            replica.solution.objective, replica.stretch.best.report.objective
        ):
            out["reason"] = (
                f"{call.strategy}: traced replica gave ({replica.solution.objective!r}, "
                f"{replica.stretch.best.report.objective!r}), run_pipeline gave "
                f"({result.lp_objective!r}, {result.report.objective!r})"
            )
        with spans.span("solver.check", request):
            failures = check_solution(replica.problem, replica.solution, OPTIONS.tolerance)
        if failures:
            out["reason"] = f"{call.strategy}: check_solution: {failures[0]}"
    out["counts"] = lp_counts(traced)
    out["trials"] = sum(call.trials for call in workload.calls)
    out["best_over_mean"] = statistics.fmean(
        r.stretch.average_objective / r.stretch.best.report.objective for r in traced
    )
    return out


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    ok = [r for r in records if "reason" not in r]
    latencies = [r["latency"] for r in ok] or [0.0]
    busy = sum(r["latency"] for r in records)
    ratios = [x for r in ok if r["pass"] == 0 for x in r["ratios"]] or [0.0]
    metrics = {
        "instance_p50_s": statistics.median(latencies),
        "instance_tail_s": p90(latencies),
        "throughput_inst_per_s": len(ok) / busy if busy > 0 else 0.0,
        "sched_lp_ratio_mean": statistics.fmean(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return metrics, {"tail_percentile": 90, "tail_samples": len(latencies)}


def per_layer(records, spans: Spans, generate_s: float) -> tuple[dict, dict]:
    ok = [r for r in records if "reason" not in r]
    first_pass = [r for r in ok if r["pass"] == 0]
    self_times = spans.per_request()

    def layer(r, name):
        return self_times.get(r["request"], {}).get(name, 0.0)

    def median_of(fn):
        return statistics.median([fn(r) for r in ok]) if ok else 0.0

    def count_of(key):
        return statistics.median_low([r["counts"].get(key, 0) for r in first_pass]) if first_pass else 0

    def traced_total(r):
        return layer(r, "pipeline.request") + sum(layer(r, n) for n in LAYER_SPANS)

    def other(r):
        return r["latency"] - sum(layer(r, n) for n in LAYER_SPANS)

    metrics = {
        "lp.horizon_s": median_of(lambda r: layer(r, "lp.horizon")),
        "lp.build_s": median_of(lambda r: layer(r, "lp.build")),
        "lp.extract_s": median_of(lambda r: layer(r, "lp.extract")),
    }
    for key in PER_LAYER_UNITS:
        if key.startswith("lp.") and not key.endswith("_s"):
            metrics[key] = count_of(key)
    metrics.update(
        {
            "solver.solve_s": median_of(lambda r: layer(r, "solver.solve")),
            "solver.check_s": median_of(lambda r: layer(r, "solver.check")),
            "rounding.stretch_s": median_of(lambda r: layer(r, "rounding.stretch")),
            "rounding.trial_s": median_of(lambda r: layer(r, "rounding.stretch") / r["trials"]),
            "rounding.expand_s": median_of(lambda r: layer(r, "rounding.expand")),
            "rounding.trials": statistics.median_low([r["trials"] for r in first_pass]) if first_pass else 0,
            "rounding.best_over_mean": (
                statistics.fmean(r["best_over_mean"] for r in first_pass) if first_pass else 0.0
            ),
            "model.as_fractional_s": median_of(lambda r: layer(r, "model.as_fractional")),
            "verify.schedule_s": median_of(lambda r: layer(r, "verify.schedule")),
            "openshop.oracle_s": median_of(lambda r: layer(r, "openshop.oracle")),
            "openshop.exact_gap_max": max((r.get("exact_gap", 0.0) for r in first_pass), default=0.0),
            "generate.instance_s": generate_s,
            "pipeline.request_s": median_of(lambda r: r["latency"]),
            "pipeline.other_s": median_of(other),
            "pipeline.trace_overhead_s": median_of(lambda r: traced_total(r) - r["latency"]),
        }
    )
    layer_sum = sum(metrics[f"{n}_s"] for n in LAYER_SPANS)
    accounting = {
        "layer_self_s_sum": layer_sum,
        "layers_plus_other_s": layer_sum + metrics["pipeline.other_s"],
        "untraced_p50_s": metrics["pipeline.request_s"],
    }
    return metrics, accounting


def bench(workload, reference, seed: int, seconds: float, trace: int, import_s: float) -> tuple[dict, dict]:
    """One run: set up, measure, check. Returns the report and the result,
    the two JSON objects ``main`` prints."""
    items, setup_s, generate_s = set_up(workload, seed)
    spans = Spans() if trace else None
    records = measure(workload, items, seconds, reference, spans)

    failed = [r for r in records if "reason" in r]
    for r in failed:
        print(
            f"FAIL request {r['request']} (instance seed {r['seed']}, trial seed {r['trial_seed']}): "
            f"{r['reason']}",
            file=sys.stderr,
        )
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "requests": len(records),
        "passes": records[-1]["pass"] + 1,
        "fail_ratio": len(failed) / len(records),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": thread_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": OPTIONS.backend,
        "import_s": import_s,
    }
    if spans is None:
        metrics, tail = end_to_end(records, import_s + setup_s)
        units = END_TO_END_UNITS
        report.update(tail)
    else:
        metrics, accounting = per_layer(records, spans, generate_s)
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        spans.write(spans_path)
        report.update(accounting, spans=str(spans_path))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return report, result


def main(args, src: Path, import_s: float) -> int:
    if Path(cn.__file__).resolve().parent != (src / "coflownet").resolve():
        print(f"error: coflownet imported from {cn.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    report, result = bench(
        workload, load_reference(workload.name), args.seed, args.seconds, args.trace, import_s
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0
