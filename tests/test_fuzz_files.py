"""Seeded fuzzing of malformed input files through the CLI.

Each case takes a well-formed file (the demo instance of either routing
model, a demo schedule, a random open shop), applies one mutation at a
random place in its JSON tree (delete a key, drop an array element, or
swap in null, a bool, NaN, +-1e308, a string, an array or an object),
and runs ``cli.main`` on it in-process. Whatever the file holds, the
command must end in a documented exit code (0, 1, 2 or 3) with no
exception escaping and no traceback printed.
"""

import copy
import json
import math

import numpy as np
import pytest

from coflownet import RoutingModel, random_shop
from coflownet.cli import main
from coflownet.generate import demo_instance
from coflownet.serialize import instance_to_dict, schedule_to_dict, shop_to_dict

from helpers import demo_optimal_schedule

#: What a mutation may swap in for a value.
_SWAPS = (None, True, False, math.nan, 1e308, -1e308, "x", [], [1.0, "x"], {}, {"x": 1})

_EXIT_CODES = {0, 1, 2, 3}


def _places(node, at=()):
    """The path of every value in a JSON tree, the root included."""
    yield at
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _places(value, (*at, key))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _places(value, (*at, k))


def _mutated(data, rng: np.random.Generator):
    """A copy of ``data`` with one value deleted or swapped out."""
    data = copy.deepcopy(data)
    places = list(_places(data))
    at = places[rng.integers(len(places))]
    swap = copy.deepcopy(_SWAPS[rng.integers(len(_SWAPS))])
    if not at:
        return swap
    parent = data
    for key in at[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[at[-1]]  # a key of an object, or an element of an array
    else:
        parent[at[-1]] = swap
    return data


def _exit_code(args, capsys) -> int:
    try:
        code = main([str(a) for a in args])
    except SystemExit as exit_:  # argparse refusing a flag
        code = exit_.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out, args
    return code


def _fuzz(tmp_path, capsys, rng, name, data, commands, cases):
    path = tmp_path / name
    for case in range(cases):
        text = json.dumps(_mutated(data, rng))
        path.write_text(text)
        for command in commands:
            code = _exit_code(command, capsys)
            assert code in _EXIT_CODES, (command, code, text)


@pytest.mark.parametrize("model", list(RoutingModel))
@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_instances_exit_with_a_documented_code(tmp_path, capsys, model, seed):
    rng = np.random.default_rng([seed, list(RoutingModel).index(model)])
    inst = tmp_path / "inst.json"
    commands = (["validate", inst], ["solve", inst, "--trials", 2])
    _fuzz(tmp_path, capsys, rng, "inst.json", instance_to_dict(demo_instance(model)), commands, 100)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_mutated_schedules_exit_with_a_documented_code(tmp_path, capsys, model):
    rng = np.random.default_rng([3, list(RoutingModel).index(model)])
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    inst.write_text(json.dumps(instance_to_dict(demo_instance(model))))
    data = schedule_to_dict(demo_optimal_schedule(model))
    _fuzz(tmp_path, capsys, rng, "sched.json", data, (["validate", inst, "--schedule", sched],), 150)


def test_mutated_shops_exit_with_a_documented_code(tmp_path, capsys):
    rng = np.random.default_rng(4)
    shop, out = tmp_path / "shop.json", tmp_path / "reduced.json"
    for _ in range(15):
        data = shop_to_dict(random_shop(rng))
        _fuzz(tmp_path, capsys, rng, "shop.json", data, (["reduce", shop, "--out", out],), 10)
