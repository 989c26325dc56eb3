import csv
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

import coflownet
import coflownet.solver
from coflownet import (
    MAX_SLOT_COLUMNS,
    RoutingModel,
    SolveStatus,
    build_interval_lp,
    build_time_indexed_lp,
    horizon_upper_bound,
    interval_grid_for,
)
from coflownet.rounding import MAX_TRIALS
from coflownet.serialize import MAX_SCHEDULE_VALUES
from coflownet.cli import main
from coflownet.bench import CSV_HEADER
from coflownet.generate import MAX_GENERATED, GenConfig, demo_instance, generate_instance
from coflownet.pipeline import STRATEGIES
from coflownet.lp import columns_per_slot
from coflownet.serialize import instance_from_dict, instance_to_dict, save_instance, schedule_to_dict

from helpers import demo_optimal_schedule, load_mps


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """``run(args)``, or the code argparse exits with when it refuses a flag."""
    try:
        return run(args)
    except SystemExit as exit_:
        return exit_.code


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--topology", "swan-like", "--jobs", 4, "--seed", 1, "--out", a]) == 0
    assert run(["gen", "--topology", "swan-like", "--jobs", 4, "--seed", 1, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["format"] == 1
    assert len(data["nodes"]) == 5
    assert len(data["edges"]) == 14


def test_solve_writes_verified_schedule(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert run(["gen", "--jobs", 3, "--seed", 2, "--out", inst]) == 0
    assert run([
        "solve", inst, "--strategy", "stretch", "--trials", 5, "--seed", 0, "--out", sched,
    ]) == 0
    out = capsys.readouterr().out
    assert "lp_objective" in out and "schedule_objective" in out
    assert run(["validate", inst, "--schedule", sched]) == 0


@pytest.mark.parametrize("strategy, unit", [("stretch", "slots"), ("interval-stretch", "intervals")])
def test_solve_prints_the_lp_steps_beside_the_horizon_bound(tmp_path, capsys, strategy, unit):
    instance = demo_instance(RoutingModel.FREE_PATH)
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    assert run(["solve", path, "--strategy", strategy, "--trials", 2]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("horizon ")]
    result = coflownet.run_pipeline(instance, strategy=strategy, trials=2)
    assert result.horizon_bound == coflownet.horizon_upper_bound(instance)
    assert lines == [
        f"horizon           bound {result.horizon_bound} slots, LP solved {result.lp_steps} {unit}"
    ]


@pytest.mark.parametrize("strategy", ["stretch", "interval-stretch", "heuristic"])
def test_solve_prints_the_unstretched_and_sampled_mean_objectives(tmp_path, capsys, strategy):
    instance = generate_instance(GenConfig(topology="gscale-like", jobs=10, seed=1))
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    assert run(["solve", path, "--strategy", strategy, "--trials", 5, "--seed", 3]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split()[0] for line in lines]
    values = {line.split()[0]: line.split(None, 1)[1] for line in lines}
    if strategy == "heuristic":
        assert "unstretched_objective" not in labels and "sampled_mean_objective" not in labels
        return
    at = labels.index("best_lambda")
    assert labels[at + 1 : at + 4] == ["unstretched_objective", "sampled_mean_objective", "list_objective"]
    result = coflownet.run_pipeline(instance, strategy=strategy, trials=5, seed=3)
    assert values["unstretched_objective"] == f"{result.unstretched.report.objective:.6f}"
    assert values["sampled_mean_objective"] == f"{result.average_objective:.6f}"
    assert values["list_objective"] == f"{result.listed.report.objective:.6f}"
    schedule = float(values["schedule_objective"])
    assert schedule <= float(values["unstretched_objective"])
    assert schedule <= float(values["sampled_mean_objective"])
    assert schedule <= float(values["list_objective"])


@pytest.mark.parametrize("jobs, list_wins", [(10, True), (2, False)], ids=["list-wins", "list-ties"])
def test_solve_prints_best_lambda_none_when_the_list_schedule_wins(tmp_path, capsys, jobs, list_wins):
    instance = generate_instance(GenConfig(topology="gscale-like", jobs=jobs, seed=1))
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    assert run(["solve", path, "--trials", 5, "--seed", 3]) == 0
    values = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    result = coflownet.run_pipeline(instance, trials=5, seed=3)
    assert values["list_objective"] == f"{result.listed.report.objective:.6f}"
    assert (result.best_lambda is None) == list_wins
    if list_wins:
        # no factor makes the list schedule
        assert values["best_lambda"] == "none"
        assert result.listed.report.objective < result.unstretched.report.objective
    else:
        # a tie keeps the stretch trial
        assert values["best_lambda"] == f"{result.best_lambda:.6f}"
        assert result.listed.report.objective == result.report.objective


def test_solve_missing_instance_exit_2(capsys):
    assert run(["solve", "definitely-missing.json"]) == 2
    assert "instance not found" in capsys.readouterr().err


def test_validate_flags_bad_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format": 1,
        "model": "single_path",
        "nodes": ["a", "b"],
        "edges": [{"id": "e", "src": "a", "dst": "b", "cap": 0.0}],
        "coflows": [{"weight": 1.0, "flows": [{"src": "a", "dst": "b", "demand": 1.0, "release": 0, "path": ["e"]}]}],
    }))
    assert run(["validate", bad]) == 1
    assert "capacity not positive" in capsys.readouterr().out


def _one_edge_instance(cap=1.0, demand=1.0, weight=1.0, model="single_path"):
    flow = {"src": "a", "dst": "b", "demand": demand, "release": 0}
    if model == "single_path":
        flow["path"] = ["e"]
    return {
        "format": 1,
        "model": model,
        "nodes": ["a", "b"],
        "edges": [{"id": "e", "src": "a", "dst": "b", "cap": cap}],
        "coflows": [{"weight": weight, "flows": [flow]}],
    }


def _self_loop_instance():
    # loops at the source and the sink would count in the free-path src/snk rows
    data = _one_edge_instance(model="free_path")
    data["edges"] += [
        {"id": "a-a", "src": "a", "dst": "a", "cap": 100.0},
        {"id": "b-b", "src": "b", "dst": "b", "cap": 100.0},
    ]
    data["coflows"][0]["flows"][0]["demand"] = 10.0
    return data


def _looping_path_instance():
    # a valid chain a-b, b-a, a-b, b-c that loads edge ab twice per slot
    flow = {"src": "a", "dst": "c", "demand": 1.0, "release": 0}
    return {
        "format": 1,
        "model": "single_path",
        "nodes": ["a", "b", "c"],
        "edges": [
            {"id": "ab", "src": "a", "dst": "b", "cap": 1.0},
            {"id": "ba", "src": "b", "dst": "a", "cap": 1.0},
            {"id": "bc", "src": "b", "dst": "c", "cap": 1.0},
        ],
        "coflows": [
            {"weight": 1.0, "flows": [{**flow, "path": ["ab", "ba", "ab", "bc"]}]},
            {"weight": 1.0, "flows": [{**flow, "path": ["ab", "bc"]}]},
        ],
    }


_OVERFLOW = "a demand/capacity ratio of inf slots is too large to build"
_HEAVY = "make the objective too large to sum"


@pytest.mark.parametrize(
    "data, message",
    [
        ({**_one_edge_instance(), "coflows": []}, "instance has no coflows"),
        (_one_edge_instance(cap=math.inf), "capacity not finite"),
        (_one_edge_instance(cap=math.nan), "capacity not positive"),
        (_one_edge_instance(demand=math.inf), "demand not finite"),
        (_one_edge_instance(weight=math.inf), "weight not finite"),
        (_looping_path_instance(), "path visits node 'a' twice"),
        (_one_edge_instance(cap=1e-10, demand=1e300), _OVERFLOW),
        (_one_edge_instance(cap=1e-10, demand=1e300, model="free_path"), _OVERFLOW),
        (_one_edge_instance(weight=1e308), _HEAVY),
        (_one_edge_instance(weight=1e308, model="free_path"), _HEAVY),
        (_self_loop_instance(), "edge a-a: self-loop"),
        ({**_one_edge_instance(), "nodes": ["a", "b", "a"]}, "node a: duplicate node name"),
    ],
    ids=[
        "no-coflows", "cap-inf", "cap-nan", "demand-inf", "weight-inf", "path-loop",
        "ratio-overflow-single", "ratio-overflow-free", "weight-overflow-single",
        "weight-overflow-free", "self-loop", "duplicate-node",
    ],
)
def test_degenerate_instance_is_reported_not_raised(tmp_path, capsys, data, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    for command in (["solve", inst], ["check", "--instance", inst]):
        assert run(command) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    # an overflowing ratio or weight is a valid instance, only too large to build
    valid = message in (_OVERFLOW, _HEAVY)
    assert run(["validate", inst]) == (0 if valid else 1)
    captured = capsys.readouterr()
    assert ("instance ok" if valid else message) in captured.out and "Traceback" not in captured.err


def test_a_schedule_objective_beyond_the_float_range_reads_inf(tmp_path, capsys):
    # two weights of 1e308 and unit completions: finite terms whose exact
    # sum overflows, which math.fsum alone raises on
    data = instance_to_dict(demo_instance(RoutingModel.SINGLE_PATH))
    for record in data["coflows"][:2]:
        record["weight"] = 1e308
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    inst.write_text(json.dumps(data))
    sched.write_text(json.dumps(schedule_to_dict(demo_optimal_schedule(RoutingModel.SINGLE_PATH))))
    assert run(["validate", inst, "--schedule", sched]) == 0
    assert "schedule ok, objective inf" in capsys.readouterr().out


def _retyped(*keys, value):
    """The one-edge instance with the field at ``keys`` set to ``value``."""
    data = _one_edge_instance()
    record = data
    for key in keys[:-1]:
        record = record[key]
    record[keys[-1]] = value
    return data


_FLOW = ("coflows", 0, "flows", 0)


@pytest.mark.parametrize(
    "data, message",
    [
        (_retyped("nodes", value="ab"), "nodes must be an array, got 'ab'"),
        (_retyped("edges", value={}), "edges must be an array, got {}"),
        (_retyped("coflows", value={}), "coflows must be an array, got {}"),
        (_retyped("coflows", 0, "flows", value="ab"), "flows must be an array, got 'ab'"),
        (_retyped(*_FLOW, "path", value="e-f"), "path must be an array, got 'e-f'"),
        (_retyped(*_FLOW, "path", 0, value=0), "path edge id must be a string, got 0"),
        (_retyped("nodes", 0, value=1), "node name must be a string, got 1"),
        (_retyped("edges", 0, "id", value=7), "edge id must be a string, got 7"),
        (_retyped("edges", 0, "src", value=None), "src must be a string, got None"),
        (_retyped("edges", 0, "dst", value=["b"]), "dst must be a string, got ['b']"),
        (_retyped(*_FLOW, "src", value=1.0), "src must be a string, got 1.0"),
        (_retyped(*_FLOW, "dst", value=True), "dst must be a string, got True"),
    ],
    ids=[
        "nodes-string", "edges-object", "coflows-object", "flows-string", "path-string",
        "path-edge-number", "node-number", "edge-id-number", "edge-src-null", "edge-dst-array",
        "flow-src-number", "flow-dst-bool",
    ],
)
def test_instance_field_of_the_wrong_json_type_exits_2(tmp_path, capsys, data, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    for command in (["validate", inst], ["solve", inst]):
        assert run(command) == 2
        err = capsys.readouterr().err
        assert "instance: malformed record" in err and message in err and "Traceback" not in err


def test_validate_rejects_unknown_format(tmp_path):
    bad = tmp_path / "v2.json"
    bad.write_text(json.dumps({"format": 2}))
    assert run(["validate", bad]) == 2


def test_mps_solver_escape_hatch(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    exported = tmp_path / "exported.mps"
    assert run(["gen", "--jobs", 2, "--seed", 5, "--out", inst]) == 0
    assert run(["solve", inst, "--strategy", "heuristic", "--write-mps", exported]) == 0
    text = exported.read_text()
    assert text.startswith("NAME")
    assert "ENDATA" in text


def _whole_relaxation(instance, strategy):
    """The relaxation of ``strategy`` over every step, built whole."""
    if strategy == "interval-stretch":
        return build_interval_lp(instance, interval_grid_for(instance, 0.2))
    return build_time_indexed_lp(instance, horizon_upper_bound(instance))


def test_mps_solver_solves_the_file_it_wrote(tmp_path, capsys):
    # the file --write-mps leaves is the whole LP whose certified prefix the
    # pipeline solved: read back and solved whole, it has the same optimum
    cases = prefixes = 0
    for model in RoutingModel:
        for seed in (1, 2):
            instance = generate_instance(GenConfig(
                topology="gscale-like", model=model, jobs=5, release_mean=1.0, seed=seed
            ))
            assert instance.max_release > 0
            inst = tmp_path / "inst.json"
            save_instance(instance, inst)
            for strategy in STRATEGIES:
                exported = tmp_path / "lp.mps"
                command = ["solve", inst, "--strategy", strategy, "--trials", 2, "--write-mps", exported]
                assert run(command) == 0
                result = coflownet.run_pipeline(instance, strategy, trials=2, epsilon=0.2)
                assert capsys.readouterr().out.startswith(f"lp_objective      {result.lp_objective:.6f}\n")
                whole, back = _whole_relaxation(instance, strategy), load_mps(exported)
                assert (back.col_names, back.row_names) == (whole.col_names, whole.row_names)
                solution = coflownet.solve(back)
                assert solution.status is SolveStatus.OPTIMAL
                assert solution.objective == pytest.approx(result.lp_objective, rel=1e-9, abs=0)
                prefixes += result.lp_steps < whole.layout.S.shape[1]
                cases += 1
    assert cases == 12 and prefixes > 0


def test_the_mps_file_carries_the_objective_constant(tmp_path, capsys):
    # HiGHS alone, reading the file, finds the optimum solve prints: the
    # objective's constant term is in the file, not only in memory
    inst, exported = tmp_path / "g.json", tmp_path / "g.mps"
    assert run(["gen", "--topology", "gscale-like", "--jobs", 10, "--seed", 1, "--out", inst]) == 0
    capsys.readouterr()
    assert run(["solve", inst]) == 0
    lp_objective = float(capsys.readouterr().out.split("\n", 1)[0].removeprefix("lp_objective"))
    assert run(["solve", inst, "--write-mps", exported]) == 0
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(exported)) != HighsStatus.kError
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert highs.getLp().offset_ > 0
    assert highs.getInfo().objective_function_value == pytest.approx(lp_objective, rel=1e-6, abs=0)


def test_write_mps_leaves_the_file_when_the_solve_fails(tmp_path, monkeypatch, capsys):
    instance = demo_instance(RoutingModel.FREE_PATH)
    inst, exported = tmp_path / "inst.json", tmp_path / "lp.mps"
    save_instance(instance, inst)

    class Failing(coflownet.solver._Highs):
        def getModelStatus(self):
            return coflownet.solver.HighsModelStatus.kSolveError

    monkeypatch.setattr(coflownet.solver, "_Highs", Failing)
    assert run(["solve", inst, "--write-mps", exported]) == 3
    assert capsys.readouterr().err == "solver failure: solver finished with status numerical\n"
    monkeypatch.undo()
    whole, back = _whole_relaxation(instance, "stretch"), load_mps(exported)
    assert (back.col_names, back.row_names) == (whole.col_names, whole.row_names)
    assert coflownet.solve(back).objective == pytest.approx(coflownet.solve(whole).objective, rel=1e-9)


_REPORT = ("lp_objective ", "horizon ", "schedule_objective ", "ratio ", "best_lambda ", "completions ")


@pytest.mark.parametrize("name", ["model.txt", "model.lp"])
def test_write_mps_accepts_only_the_mps_suffix(tmp_path, capfd, name):
    # HiGHS picks the format from the suffix, and writes CPLEX LP text for
    # .lp, which it cannot read back as MPS: other suffixes are refused
    inst = tmp_path / "inst.json"
    assert run(["gen", "--jobs", 2, "--seed", 5, "--out", inst]) == 0
    assert run(["solve", inst, "--strategy", "heuristic", "--write-mps", tmp_path / name]) == 2
    assert capfd.readouterr().err == f"error: an LP file must end in .mps, got '{tmp_path / name}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
    assert run(["solve", inst, "--strategy", "heuristic"]) == 0
    in_memory = capfd.readouterr().out
    assert run(["solve", inst, "--strategy", "heuristic", "--write-mps", tmp_path / "model.mps"]) == 0
    captured = capfd.readouterr()
    text = (tmp_path / "model.mps").read_text()
    assert text.startswith("NAME") and "ENDATA" in text
    # HiGHS prints nothing: stdout holds the report lines, the same as without the file
    lines = captured.out.splitlines()
    assert lines and all(line.startswith(_REPORT) for line in lines) and not captured.err
    assert captured.out == in_memory


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", 0], "--trials"),
        (["--trials", MAX_TRIALS + 1], f"--trials must be at most {MAX_TRIALS:,}"),
        (["--strategy", "interval-stretch", "--epsilon", 0], "--epsilon"),
        (["--solver", "builtin"], "unrecognized arguments: --solver builtin"),
        (["--solver", "glpk"], "unrecognized arguments: --solver glpk"),
        (["--solver", "mps:"], "unrecognized arguments: --solver mps:"),
        (["--solver", "highs"], "unrecognized arguments: --solver highs"),
        (["--write-mps", "{tmp}/missing-dir/out.mps"], "cannot write the LP to {tmp}/missing-dir/out.mps"),
        (["--write-mps", "{tmp}"], "an LP file must end in .mps, got '{tmp}'"),
        (["--write-mps", "{tmp}/dir.mps"], "cannot write the LP to {tmp}/dir.mps"),
        (["--write-mps", "{tmp}/out.lp"], "an LP file must end in .mps, got '{tmp}/out.lp'"),
        (["--write-mps", "{tmp}/out.txt"], "an LP file must end in .mps"),
        (["--write-mps", "{tmp}/out.mps", "--trials", 0], "--trials"),
    ],
    ids=[
        "trials-0", "trials-over-cap", "epsilon-0", "builtin", "unknown", "mps-no-path", "highs",
        "mps-unwritable", "mps-directory", "mps-directory-named-mps", "mps-lp-suffix",
        "mps-txt-suffix", "mps-with-trials-0",
    ],
)
def test_bad_solve_flags_exit_2(tmp_path, capsys, flags, message):
    # --solver, with it the MPS read-back backend, is gone: an unknown flag
    inst = tmp_path / "inst.json"
    assert run(["gen", "--jobs", 2, "--seed", 1, "--out", inst]) == 0
    (tmp_path / "dir.mps").mkdir()
    flags = [str(f).format(tmp=tmp_path) for f in flags]
    assert exit_code(["solve", inst] + flags) == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err and "Traceback" not in err
    # no file is left behind, also in a directory given as the path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.mps", "inst.json"]
    assert not list((tmp_path / "dir.mps").iterdir())


def test_mps_solver_names_the_edge_id_that_holds_whitespace(tmp_path, capsys):
    data = instance_to_dict(demo_instance(RoutingModel.FREE_PATH))
    for edge in data["edges"]:
        edge["id"] = "edge one" if edge["id"] == "s-v1" else edge["id"]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    assert run(["validate", inst]) == 0
    assert run(["solve", inst, "--write-mps", tmp_path / "out.mps"]) == 2
    err = capsys.readouterr().err
    assert "cannot write the LP to" in err and "edge one" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


_SCHEDULE = ["validate", "inst.json", "--schedule", "in.json"]
_OUT_OF_RANGE = {"format": 1, "slot_count": 2, "coflows": [{"flows": [{"amounts": [[5, 1.0]]}]}]}
_ZERO_JOB_SHOP = {"format": 1, "machines": 2, "jobs": [{"weight": 1, "p": [0, 0]}, {"weight": 1, "p": [1, 2]}]}
_FRACTIONAL_SLOT = {"format": 1, "slot_count": 2, "coflows": [{"flows": [{"amounts": [[1.5, 0.3]]}]}]}


def _shop_text(**fields):
    """A valid two-machine shop file with ``fields`` replaced."""
    return json.dumps({"format": 1, "machines": 2, "jobs": [{"weight": 1, "p": [1, 2]}], **fields})


def _instance_text(coflow=None, flow=None):
    """The single-path demo instance with fields of its first coflow and
    first flow replaced."""
    data = instance_to_dict(demo_instance(RoutingModel.SINGLE_PATH))
    data["coflows"][0].update(coflow or {})
    data["coflows"][0]["flows"][0].update(flow or {})
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, command, message",
    [
        ('{"format": 1}', _SCHEDULE, "schedule: malformed record ('slot_count')"),
        ("not json", _SCHEDULE, "cannot read schedule"),
        (json.dumps(_OUT_OF_RANGE), _SCHEDULE, "slot 5 outside 1..2"),
        ("[1, 2]", _SCHEDULE, "schedule: expected a JSON object"),
        (json.dumps(_ZERO_JOB_SHOP), ["reduce", "in.json"], "job 1 has no positive processing time"),
        ('{"format": 1}', ["reduce", "in.json"], "shop: malformed record ('machines')"),
        (_shop_text(machines=2.7), ["reduce", "in.json"], "machines must be an integer, got 2.7"),
        (_shop_text(machines="2"), ["reduce", "in.json"], "machines must be a number, got '2'"),
        (
            '{"format": 1, "machines": 2, "jobs": [{"weight": 1, "p": [1, NaN]}]}',
            ["reduce", "in.json"],
            "job 1: processing times must be finite and nonnegative",
        ),
        (_shop_text(jobs=[{"weight": math.nan, "p": [1, 2]}]), ["reduce", "in.json"],
         "weights must be positive and finite"),
        ('{"format": 1, "machines": -1, "jobs": []}', ["reduce", "in.json"],
         "machines must be at least 1, got -1"),
        ('{"format": 1, "machines": 3, "jobs": []}', ["reduce", "in.json"], "shop has no jobs"),
        (_instance_text(coflow={"weight": "3"}), ["validate", "in.json"], "weight must be a number, got '3'"),
        (_instance_text(flow={"demand": "1"}), ["validate", "in.json"], "demand must be a number, got '1'"),
        (_instance_text(flow={"release": True}), ["validate", "in.json"], "release must be a number, got True"),
        (json.dumps(_FRACTIONAL_SLOT), _SCHEDULE, "slot must be an integer, got 1.5"),
        (json.dumps({**_OUT_OF_RANGE, "slot_count": 2.5}), _SCHEDULE, "slot_count must be an integer, got 2.5"),
        (None, ["gen", "--jobs", 0], "need at least one job"),
        (None, ["gen", "--flows-min", 3, "--flows-max", 1], "flows per job must satisfy"),
        (None, ["gen", "--demand-min", -1], "demand range must be positive"),
        (None, ["gen", "--cap", 0], "cap must be positive and finite"),
        (None, ["bench", "--cap", -1], "cap must be positive and finite"),
        (None, ["bench", "--cap", 1e-320], "a demand/capacity ratio of inf slots is too large to build"),
        (None, ["bench", "--epsilon", "abc"], "--epsilon must be a comma-separated list"),
        (None, ["bench", "--trials", 0], "--trials must be at least 1"),
        (None, ["bench", "--trials", MAX_TRIALS + 1], f"--trials must be at most {MAX_TRIALS:,}"),
        (None, ["bench", "--strategies", "interval-stretch", "--epsilon", 0], "--epsilon must be positive"),
        # the weights are fine: the grid's one long interval is what overflows
        (None, ["solve", "inst.json", "--strategy", "interval-stretch", "--epsilon", 1e300],
         "coflow weights summing to 4 over a horizon span of 1e+300 slots make the objective too large"),
        (None, ["solve", "inst.json", "--seed", -1], "--seed must be non-negative, got -1"),
        (None, ["bench", "--seed", -5], "--seed must be non-negative, got -5"),
        (None, ["check", "--seed", -1], "--seed must be non-negative, got -1"),
        (None, ["gen", "--seed", -1], "--seed must be non-negative, got -1"),
        (None, ["check", "--solver", "mps:missing-dir/x.mps"], "unrecognized arguments: --solver"),
        (None, ["bench", "--instances", -1], "--instances must be non-negative, got -1"),
        ('{"format": 1, "slot_count": 2, "coflows": [{"flows": [{"amounts": [[2, NaN]]}]}]}', _SCHEDULE,
         "amount must be finite, got nan"),
        (json.dumps({**_OUT_OF_RANGE, "coflows": {}}), _SCHEDULE,
         "schedule: malformed record (coflows must be an array, got {})"),
        (json.dumps({**_OUT_OF_RANGE, "coflows": [{"flows": {}}]}), _SCHEDULE,
         "schedule: malformed record (flows must be an array, got {})"),
        (json.dumps({**_OUT_OF_RANGE, "coflows": [{"flows": [{"amounts": {}}]}]}), _SCHEDULE,
         "schedule: malformed record (amounts must be an array, got {})"),
        (json.dumps({**_OUT_OF_RANGE, "coflows": [{"flows": [{"amounts": [], "edge_amounts": []}]}]}),
         _SCHEDULE, "schedule: malformed record (edge_amounts must be an object, got [])"),
    ],
    ids=[
        "schedule-no-slot-count", "schedule-not-json", "schedule-slot-out-of-range",
        "schedule-not-object", "shop-all-zero-job", "shop-no-machines", "shop-fractional-machines",
        "shop-string-machines", "shop-nan-processing-time", "shop-nan-weight",
        "shop-negative-machines", "shop-no-jobs", "instance-string-weight", "instance-string-demand",
        "instance-bool-release", "schedule-fractional-slot", "schedule-fractional-slot-count",
        "gen-jobs-0",
        "gen-flows-min-above-max", "gen-negative-demand", "gen-cap-0", "bench-cap-negative", "bench-cap-overflow",
        "bench-epsilon-abc",
        "bench-trials-0", "bench-trials-over-cap", "bench-interval-epsilon-0", "solve-interval-epsilon-1e300",
        "solve-negative-seed", "bench-negative-seed", "check-negative-seed", "gen-negative-seed",
        "check-mps-unwritable", "bench-negative-instances", "schedule-nan-amount", "schedule-coflows-object",
        "schedule-flows-object", "schedule-amounts-object", "schedule-edge-amounts-array",
    ],
)
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, text, command, message):
    monkeypatch.chdir(tmp_path)
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), "inst.json")
    if text is not None:
        Path("in.json").write_text(text)
    assert exit_code(command) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert "coflows" not in captured.out  # no instance was written


def test_reduce_round_trip(tmp_path):
    shop = tmp_path / "shop.json"
    out = tmp_path / "reduced.json"
    shop.write_text(json.dumps({
        "format": 1,
        "machines": 2,
        "jobs": [{"weight": 1.0, "p": [1, 2]}, {"weight": 2.0, "p": [2, 1]}],
    }))
    assert run(["reduce", shop, "--out", out]) == 0
    assert run(["validate", out]) == 0
    data = json.loads(out.read_text())
    assert len(data["coflows"]) == 2


def test_bench_csv_contract(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "bench", "--jobs", 3, "--instances", 2, "--trials", 4, "--seed", 3,
        "--strategies", "stretch,heuristic,interval-stretch",
        "--epsilon", "0.2,0.5436",
    ]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    rows1 = list(csv.reader(out1.open()))
    rows2 = list(csv.reader(out2.open()))
    assert rows1[0] == list(CSV_HEADER)
    wall = CSV_HEADER.index("wall_ms")
    # wall_ms may differ
    assert [r[:wall] + r[wall + 1:] for r in rows1] == [r[:wall] + r[wall + 1:] for r in rows2]
    assert all(row[CSV_HEADER.index("error")] == "" for row in rows1[1:])
    # 2 instances x (stretch, heuristic, interval x 2 epsilons)
    assert len(rows1) == 1 + 2 * 4
    for row in rows1[1:]:
        ratio = float(row[6])
        assert ratio >= 1.0 - 1e-9


def test_bench_empty_strategy_list_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["bench", "--jobs", 2, "--instances", 0, "--out", out]) == 0
    rows = list(csv.reader(out.open()))
    assert rows == [list(CSV_HEADER)]


def test_check_subcommand_ok(capsys):
    assert run(["check", "--model", "free_path"]) == 0
    out = capsys.readouterr().out
    assert "check ok" in out


def test_usage_error_on_unknown_strategy(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run(["gen", "--jobs", 2, "--seed", 1, "--out", inst]) == 0
    with pytest.raises(SystemExit):
        run(["solve", inst, "--strategy", "zigzag"])


def test_non_verifying_optimum_exits_3(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "inst.json"
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), inst)
    monkeypatch.setattr(coflownet.solver, "check_solution", lambda *args, **kwargs: ["forced"])
    for command in (["solve", inst], ["check", "--instance", inst]):
        assert run(command) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: HiGHS returned a non-verifying optimum")
        assert "Traceback" not in err


def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys):
    for command in (["reduce", tmp_path / "shop.json", "--seed", 1], ["check", "--out", "x"]):
        with pytest.raises(SystemExit) as exit_:
            run(command)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


SRC = Path(coflownet.__file__).resolve().parent.parent


def run_module(args, address_space=None, timeout=120):
    """``python -m coflownet ARGS`` in a fresh interpreter, optionally with
    its address space capped so that a runaway allocation fails fast."""
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "coflownet", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=cap if address_space else None,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    inst = tmp_path / "demo.json"
    save_instance(demo_instance(RoutingModel.FREE_PATH), inst)
    done = run_module(["validate", inst])
    assert done.returncode == 0, done.stderr
    assert "instance ok" in done.stdout


@pytest.mark.parametrize(
    "data, horizon",
    [(_one_edge_instance(demand=1e9), 10**9), (_one_edge_instance(cap=1e-9), 10**9)],
    ids=["demand-1e9", "cap-1e-9"],
)
def test_horizon_blow_up_is_refused_before_allocating(tmp_path, data, horizon):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    instance = instance_from_dict(data)
    columns = f"{columns_per_slot(instance) * horizon:,} LP columns"
    exported = tmp_path / "lp.mps"
    for command in (
        ["solve", inst],
        ["solve", inst, "--strategy", "interval-stretch"],
        ["solve", inst, "--write-mps", exported],
        ["solve", inst, "--strategy", "interval-stretch", "--write-mps", exported],
        ["check", "--instance", inst],
    ):
        done = run_module(command, address_space=1 << 30)
        assert done.returncode == 2, done.stderr
        assert columns in done.stderr and f"{MAX_SLOT_COLUMNS:,}" in done.stderr
        assert "Traceback" not in done.stderr
        assert not exported.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "inst.json", "--strategy", "interval-stretch", "--epsilon", "1e-300"],
        ["solve", "inst.json", "--strategy", "interval-stretch", "--epsilon", "1e-9"],
        ["bench", "--strategies", "interval-stretch", "--epsilon", "1e-9"],
    ],
    ids=["solve-1e-300", "solve-1e-9", "bench-1e-9"],
)
def test_tiny_epsilon_is_refused_before_building_the_grid(tmp_path, command):
    # 1 + 1e-300 == 1.0, and 1e-9 would take billions of boundaries
    save_instance(demo_instance(RoutingModel.FREE_PATH), tmp_path / "inst.json")
    done = run_module([tmp_path / arg if arg == "inst.json" else arg for arg in command], timeout=20)
    assert done.returncode == 2, done.stderr
    assert f"more than the limit of {MAX_SLOT_COLUMNS:,}" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--jobs", 10**8], f"jobs x max flows per job must be at most {MAX_GENERATED:,}, got 300,000,000"),
        (["--topology", "random", "--nodes", 10**8, "--links", 10**8],
         f"nodes must be at most {MAX_GENERATED:,}, got 100,000,000"),
    ],
    ids=["jobs", "random-nodes-links"],
)
def test_gen_past_its_bound_is_refused_before_allocating(tmp_path, flags, message):
    # each ran on without bound, or died with a MemoryError traceback
    done = run_module(["gen", *flags, "--out", tmp_path / "inst.json"], address_space=1 << 30, timeout=20)
    assert done.returncode == 2, done.stderr
    assert message in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "inst.json").exists()


def test_random_topologies_past_nine_nodes_validate(tmp_path):
    # past nine nodes name order ("n10" < "n2") is not index order: no link may come in both orientations
    inst = tmp_path / "inst.json"
    for seed in range(50):
        assert run(["gen", "--topology", "random", "--nodes", 12, "--links", 30, "--seed", seed, "--out", inst]) == 0
        assert run(["validate", inst]) == 0, seed


def test_oversized_schedule_is_refused_before_allocating(tmp_path):
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), inst)
    flows = [{"flows": [{"amounts": [[1, 1.0]]}]} for _ in range(4)]
    sched.write_text(json.dumps({"format": 1, "slot_count": 10**12, "coflows": flows}))
    done = run_module(["validate", inst, "--schedule", sched], address_space=1 << 30)
    assert done.returncode == 2, done.stderr
    assert f"more than {MAX_SCHEDULE_VALUES:,} values" in done.stderr
    assert "Traceback" not in done.stderr
