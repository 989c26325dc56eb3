import csv
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import coflownet
import coflownet.solver
from coflownet import MAX_SLOT_COLUMNS, RoutingModel
from coflownet.rounding import MAX_TRIALS
from coflownet.serialize import MAX_SCHEDULE_VALUES
from coflownet.cli import main
from coflownet.bench import CSV_HEADER
from coflownet.generate import demo_instance
from coflownet.serialize import instance_to_dict, save_instance

from helpers import as_scipy


def run(args):
    return main([str(a) for a in args])


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
        "solve", inst, "--strategy", "stretch", "--trials", 5, "--seed", 0,
        "--solver", "highs", "--out", sched,
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
        (_self_loop_instance(), "edge a-a: self-loop"),
        ({**_one_edge_instance(), "nodes": ["a", "b", "a"]}, "node a: duplicate node name"),
    ],
    ids=[
        "no-coflows", "cap-inf", "cap-nan", "demand-inf", "weight-inf", "path-loop",
        "ratio-overflow-single", "ratio-overflow-free", "self-loop", "duplicate-node",
    ],
)
def test_degenerate_instance_is_reported_not_raised(tmp_path, capsys, data, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    for command in (["solve", inst], ["check", "--instance", inst]):
        assert run(command) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    # an overflowing ratio is a valid instance, only too large to build
    valid = message == _OVERFLOW
    assert run(["validate", inst]) == (0 if valid else 1)
    captured = capsys.readouterr()
    assert ("instance ok" if valid else message) in captured.out and "Traceback" not in captured.err


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
    assert run(["solve", inst, "--strategy", "heuristic", "--solver", f"mps:{exported}"]) == 0
    text = exported.read_text()
    assert text.startswith("NAME")
    assert "ENDATA" in text


def test_mps_solver_solves_the_file_it_wrote(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    exported = tmp_path / "exported.mps"
    assert run(["gen", "--jobs", 2, "--seed", 5, "--out", inst]) == 0
    read_back, handed = [], []
    real_load, real_highs = coflownet.solver.load_mps, coflownet.solver._highs

    def spy_load(path):
        read_back.append(real_load(path))
        return read_back[-1]

    def spy_highs(objective, A, *rest):
        handed.append((objective, A))
        return real_highs(objective, A, *rest)

    monkeypatch.setattr(coflownet.solver, "load_mps", spy_load)
    monkeypatch.setattr(coflownet.solver, "_highs", spy_highs)
    assert run(["solve", inst, "--strategy", "heuristic", "--solver", f"mps:{exported}"]) == 0
    # HiGHS saw exactly one problem: the one read from the file (it has
    # no fixed column, so its arrays reach HiGHS as they are)
    assert len(read_back) == 1 and len(handed) == 1
    assert handed[0][0] is read_back[0].objective and handed[0][1] is read_back[0].A
    # the file read is the file left on disk, and nothing else is
    on_disk = real_load(exported)
    assert on_disk.col_names == read_back[0].col_names
    assert (as_scipy(on_disk.A) != as_scipy(read_back[0].A)).nnz == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exported.mps", "inst.json"]


_REPORT = ("lp_objective ", "horizon ", "schedule_objective ", "ratio ", "best_lambda ", "completions ")


@pytest.mark.parametrize("name", ["model.txt", "model.lp"])
def test_mps_solver_writes_mps_text_whatever_the_extension(tmp_path, capfd, name):
    inst = tmp_path / "inst.json"
    assert run(["gen", "--jobs", 2, "--seed", 5, "--out", inst]) == 0
    assert run(["solve", inst, "--strategy", "heuristic"]) == 0
    in_memory = capfd.readouterr().out.splitlines()
    assert run(["solve", inst, "--strategy", "heuristic", "--solver", f"mps:{tmp_path / name}"]) == 0
    captured = capfd.readouterr()
    text = (tmp_path / name).read_text()
    assert text.startswith("NAME") and "ENDATA" in text
    # HiGHS prints nothing: stdout holds the report lines and no others
    lines = captured.out.splitlines()
    assert lines and all(line.startswith(_REPORT) for line in lines) and not captured.err
    assert lines[0] == in_memory[0] and lines[0].startswith("lp_objective ")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["inst.json", name])
    # permissions as for any new file, not those of a private temporary one
    assert (tmp_path / name).stat().st_mode == inst.stat().st_mode


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", 0], "--trials"),
        (["--trials", MAX_TRIALS + 1], f"--trials must be at most {MAX_TRIALS:,}"),
        (["--strategy", "interval-stretch", "--epsilon", 0], "--epsilon"),
        (["--solver", "builtin"], "unknown backend"),
        (["--solver", "glpk"], "unknown backend"),
        (["--solver", "mps:"], "unknown backend"),
        (["--solver", "mps:{tmp}/missing-dir/out.mps"], "missing-dir"),
        (["--solver", "mps:{tmp}"], "cannot write the LP to {tmp}:"),
    ],
    ids=[
        "trials-0", "trials-over-cap", "epsilon-0", "builtin", "unknown", "mps-no-path",
        "mps-unwritable", "mps-directory",
    ],
)
def test_bad_solve_flags_exit_2(tmp_path, capsys, flags, message):
    inst = tmp_path / "inst.json"
    assert run(["gen", "--jobs", 2, "--seed", 1, "--out", inst]) == 0
    flags = [str(f).format(tmp=tmp_path) for f in flags]
    assert run(["solve", inst] + flags) == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err and "Traceback" not in err
    # no file is left behind, also beside a directory given as the path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
    assert not list(tmp_path.parent.glob(".coflownet-*"))


def test_mps_solver_names_the_edge_id_that_holds_whitespace(tmp_path, capsys):
    data = instance_to_dict(demo_instance(RoutingModel.FREE_PATH))
    for edge in data["edges"]:
        edge["id"] = "edge one" if edge["id"] == "s-v1" else edge["id"]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    assert run(["validate", inst]) == 0
    assert run(["solve", inst, "--solver", f"mps:{tmp_path / 'out.mps'}"]) == 2
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
        (None, ["solve", "inst.json", "--seed", -1], "--seed must be non-negative, got -1"),
        (None, ["bench", "--seed", -5], "--seed must be non-negative, got -5"),
        (None, ["check", "--seed", -1], "--seed must be non-negative, got -1"),
        (None, ["gen", "--seed", -1], "--seed must be non-negative, got -1"),
        (None, ["check", "--solver", "mps:missing-dir/x.mps"], "cannot write the LP to missing-dir/x.mps"),
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
        "bench-trials-0", "bench-trials-over-cap", "bench-interval-epsilon-0",
        "solve-negative-seed", "bench-negative-seed", "check-negative-seed", "gen-negative-seed",
        "check-mps-unwritable", "schedule-nan-amount", "schedule-coflows-object",
        "schedule-flows-object", "schedule-amounts-object", "schedule-edge-amounts-array",
    ],
)
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, text, command, message):
    monkeypatch.chdir(tmp_path)
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), "inst.json")
    if text is not None:
        Path("in.json").write_text(text)
    assert run(command) == 2
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
        assert err.startswith("solver failure: backend 'highs' returned a non-verifying optimum")
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
    columns = f"{3 * horizon:,} LP columns"  # X, x and S per slot
    for command in (
        ["solve", inst],
        ["solve", inst, "--strategy", "interval-stretch"],
        ["check", "--instance", inst],
    ):
        done = run_module(command, address_space=1 << 30)
        assert done.returncode == 2, done.stderr
        assert columns in done.stderr and f"{MAX_SLOT_COLUMNS:,}" in done.stderr
        assert "Traceback" not in done.stderr


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
