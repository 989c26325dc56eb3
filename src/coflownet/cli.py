"""Command-line front end.

Subcommands: gen | solve | validate | bench | reduce | check.
Exit codes: 0 ok, 1 verification failure, 2 usage/IO error or an instance
too large to build, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .generate import GenConfig, TOPOLOGIES, demo_instance, generate_instance
from .model import RoutingModel, check_instance, completion_times, validate_instance
from .openshop import reduce_open_shop
from .rounding import MAX_TRIALS
from .pipeline import (
    STRATEGIES,
    HorizonTooLarge,
    SolveFailure,
    VerificationFailure,
    run_pipeline,
    write_relaxation,
)
from .serialize import (
    dumps,
    instance_to_dict,
    load_instance,
    load_schedule,
    load_shop,
    save_schedule,
)
from .solver import SolverError
from .verify import (
    IDENTITY_TRIALS,
    check_identity_on_vectors,
    continuous_interpolation_checks,
    verify_schedule,
)

OK, VERIFY_FAIL, USAGE, SOLVER_FAIL = 0, 1, 2, 3


class _Usage(Exception):
    pass


def _load(path: str, what: str, loader):
    """``loader(path)``; a missing or unreadable file is a usage error."""
    p = Path(path)
    if not p.exists():
        raise _Usage(f"{what} not found: {path}")
    try:
        return loader(p)
    except ValueError as exc:  # FormatError, JSONDecodeError and UnicodeDecodeError too
        raise _Usage(f"cannot read {what} {path}: {exc}")


def _load_instance(path: str):
    return _load(path, "instance", load_instance)


def _load_valid_instance(path: str):
    instance = _load_instance(path)
    try:
        check_instance(instance)
    except ValueError as exc:
        raise _Usage(str(exc))
    return instance


def _check_rounding_flags(trials: int, epsilons) -> None:
    """``--trials`` and the interval-grid ``--epsilon`` values in use."""
    if trials < 1:
        raise _Usage(f"--trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise _Usage(f"--trials must be at most {MAX_TRIALS:,}, got {trials:,}")
    for eps in epsilons:
        if not 0 < eps < math.inf:
            raise _Usage(f"--epsilon must be positive and finite, got {eps}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="coflownet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--topology", choices=TOPOLOGIES, default="swan-like")
    p.add_argument("--model", choices=[m.value for m in RoutingModel], default="single_path")
    p.add_argument("--jobs", type=int, default=10)
    p.add_argument("--flows-min", type=int, default=1)
    p.add_argument("--flows-max", type=int, default=3)
    p.add_argument("--demand-min", type=float, default=0.5)
    p.add_argument("--demand-max", type=float, default=3.0)
    p.add_argument("--weight-min", type=float, default=1.0)
    p.add_argument("--weight-max", type=float, default=100.0)
    p.add_argument("--release-mean", type=float, default=0.0)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--links", type=int, default=12)
    p.add_argument("--cap", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("solve", help="solve an instance end to end")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=STRATEGIES, default="stretch")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--write-mps", type=str, default=None, metavar="PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("validate", help="validate an instance (and optionally a schedule)")
    p.add_argument("instance")
    p.add_argument("--schedule", type=str, default=None)

    p = sub.add_parser("bench", help="benchmark sweep to CSV")
    p.add_argument("--topology", choices=TOPOLOGIES, default="swan-like")
    p.add_argument("--model", choices=[m.value for m in RoutingModel], default="single_path")
    p.add_argument("--jobs", type=int, default=6)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--strategies", type=str, default="stretch,heuristic")
    p.add_argument("--epsilon", type=str, default="0.2")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--release-mean", type=float, default=0.0)
    p.add_argument("--cap", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("reduce", help="reduce an open-shop file to a coflow instance")
    p.add_argument("shop")
    p.add_argument("--model", choices=[m.value for m in RoutingModel], default="single_path")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("check", help="run the analysis identity checks")
    p.add_argument("--instance", type=str, default=None)
    p.add_argument("--model", choices=[m.value for m in RoutingModel], default="single_path")
    p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (_Usage, HorizonTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (SolveFailure, SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_FAIL
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    # numpy seeds only take non-negative integers; refuse before any work
    if getattr(args, "seed", 0) < 0:
        raise _Usage(f"--seed must be non-negative, got {args.seed}")
    if args.command == "gen":
        try:
            config = GenConfig(
                topology=args.topology,
                model=RoutingModel(args.model),
                jobs=args.jobs,
                flows_per_job=(args.flows_min, args.flows_max),
                demand_range=(args.demand_min, args.demand_max),
                weight_range=(args.weight_min, args.weight_max),
                release_mean=args.release_mean,
                nodes=args.nodes,
                links=args.links,
                cap=args.cap,
                seed=args.seed,
            )
            instance = generate_instance(config)
        except ValueError as exc:  # a config or topology the flags cannot make
            raise _Usage(str(exc))
        _emit(dumps(instance_to_dict(instance)), args.out)
        return OK

    if args.command == "solve":
        instance = _load_valid_instance(args.instance)
        _check_rounding_flags(args.trials, [args.epsilon] if args.strategy == "interval-stretch" else ())
        if args.write_mps is not None:
            try:
                write_relaxation(instance, args.strategy, args.epsilon, args.write_mps)
            except ValueError as exc:  # not an .mps path, or HorizonTooLarge
                raise _Usage(str(exc))
        result = run_pipeline(
            instance,
            strategy=args.strategy,
            trials=args.trials,
            seed=args.seed,
            epsilon=args.epsilon,
        )
        print(f"lp_objective      {result.lp_objective:.6f}")
        unit = "intervals" if args.strategy == "interval-stretch" else "slots"
        print(
            f"horizon           bound {result.horizon_bound} slots, "
            f"LP solved {result.lp_steps} {unit}"
        )
        print(f"schedule_objective {result.report.objective:.6f}")
        print(f"ratio             {result.report.objective / result.lp_objective:.4f}")
        print(f"best_lambda       {result.best_lambda:.6f}")
        print(f"completions       {list(result.report.completions)}")
        if args.out:
            save_schedule(result.schedule, args.out)
            print(f"schedule written to {args.out}")
        return OK

    if args.command == "validate":
        instance = _load_instance(args.instance)
        problems = validate_instance(instance)
        for msg in problems:
            print(f"instance: {msg}")
        if problems:
            return VERIFY_FAIL
        print("instance ok")
        if args.schedule:
            schedule = _load(args.schedule, "schedule", load_schedule)
            violations = verify_schedule(schedule, instance)
            for v in violations:
                print(f"schedule: {v}")
            if violations:
                return VERIFY_FAIL
            report = completion_times(schedule, instance)
            print(f"schedule ok, objective {report.objective:.6f}")
        return OK

    if args.command == "bench":
        strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
        for s in strategies:
            if s not in STRATEGIES:
                raise _Usage(f"unknown strategy {s!r}")
        try:
            epsilons = tuple(float(e) for e in args.epsilon.split(",") if e.strip())
        except ValueError:
            raise _Usage(f"--epsilon must be a comma-separated list of numbers, got {args.epsilon!r}")
        interval = "interval-stretch" in strategies
        if interval and not epsilons:
            raise _Usage("--epsilon lists no value for interval-stretch")
        _check_rounding_flags(args.trials, epsilons if interval else ())
        if args.instances < 0:
            raise _Usage(f"--instances must be non-negative, got {args.instances}")
        try:
            gen = GenConfig(
                topology=args.topology,
                model=RoutingModel(args.model),
                jobs=args.jobs,
                release_mean=args.release_mean,
                cap=args.cap,
                seed=args.seed,
            )
        except ValueError as exc:
            raise _Usage(str(exc))
        config = bench_mod.BenchConfig(
            gen=gen,
            instances=args.instances,
            strategies=strategies,
            epsilons=epsilons,
            trials=args.trials,
            seed=args.seed,
        )
        rows = bench_mod.run_bench(config)
        for row in rows:
            if row.error:
                print(f"row failed ({row.strategy}, seed {row.seed}): {row.error}", file=sys.stderr)
        _emit(bench_mod.rows_to_csv(rows), args.out)
        return OK

    if args.command == "reduce":
        shop = _load(args.shop, "shop file", load_shop)
        try:
            instance = reduce_open_shop(shop, RoutingModel(args.model))
        except ValueError as exc:
            raise _Usage(f"cannot reduce shop {args.shop}: {exc}")
        _emit(dumps(instance_to_dict(instance)), args.out)
        return OK

    if args.command == "check":
        return _run_checks(args)

    raise _Usage(f"unknown command {args.command!r}")


def _run_checks(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst_identity = check_identity_on_vectors(rng)
    print(f"prefix-sum identity residual ({IDENTITY_TRIALS} random vectors): {worst_identity:.3e}")
    failed = worst_identity > 1e-12

    if args.instance:
        instance = _load_valid_instance(args.instance)
    else:
        instance = demo_instance(RoutingModel(args.model))
    fractional = run_pipeline(instance).fractional
    for j, report in enumerate(continuous_interpolation_checks(fractional)):
        print(
            f"coflow {j + 1}: integral {report.integral:.6f} "
            f"identity {report.identity_residual:.3e} "
            f"completion slack {report.completion_slack:+.3e} "
            f"quadrature {report.quadrature_residual:.3e}"
        )
        failed = failed or report.identity_residual > 1e-9
        failed = failed or (report.completion_slack is not None and report.completion_slack < -1e-9)
        failed = failed or report.quadrature_residual > 1e-4
    print("check failed" if failed else "check ok")
    return VERIFY_FAIL if failed else OK


if __name__ == "__main__":
    sys.exit(main())
