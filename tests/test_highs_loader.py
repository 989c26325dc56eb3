"""The solver loads scipy's HiGHS extension from its file, so a process that
imports coflownet never imports the ``scipy.optimize`` package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coflownet
from coflownet import RoutingModel
from coflownet.generate import demo_instance
from coflownet.serialize import save_instance

SRC = Path(coflownet.__file__).resolve().parent.parent

#: Solves the free-path demo in the fresh interpreter and checks the result.
SOLVE_DEMO = """
from coflownet import RoutingModel, build_time_indexed_lp, horizon_upper_bound, solve
from coflownet.generate import demo_instance
instance = demo_instance(RoutingModel.FREE_PATH)
assert solve(build_time_indexed_lp(instance, horizon_upper_bound(instance))).status == "optimal"
"""


def _fresh(*args):
    """``python ARGS`` in a fresh interpreter that finds this checkout's package."""
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


def test_import_leaves_scipy_optimize_out():
    _fresh("-c", "import coflownet, sys; assert 'scipy.optimize' not in sys.modules")


def test_a_later_scipy_optimize_shares_the_binding():
    _fresh("-c", SOLVE_DEMO + """
import sys
import coflownet.solver
assert "scipy.optimize" not in sys.modules
from scipy.optimize._highspy._core import _Highs
assert _Highs is coflownet.solver._Highs
from scipy.optimize import linprog
done = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0, None), method="highs")
assert done.status == 0 and abs(done.fun - 1.0) < 1e-9, done
""")


def test_an_earlier_scipy_optimize_binding_is_reused():
    _fresh("-c", """
import importlib.util, sys
import scipy.optimize
core = sys.modules["scipy.optimize._highspy._core"]
def load_again(*args, **kwargs):
    raise AssertionError("the binding was loaded a second time")
importlib.util.spec_from_file_location = load_again
import coflownet.solver
assert coflownet.solver._core is core and coflownet.solver._Highs is core._Highs
""" + SOLVE_DEMO)


def test_the_plain_import_serves_when_no_file_is_found():
    _fresh("-c", """
import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES = []
import coflownet.solver
assert "scipy.optimize" in sys.modules
assert coflownet.solver._core is sys.modules["scipy.optimize._highspy._core"]
""" + SOLVE_DEMO)


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_cli_never_imports_scipy_optimize(tmp_path, command):
    inst = tmp_path / "demo.json"
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), inst)
    done = _fresh("-X", "importtime", "-m", "coflownet", command, inst)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "numpy" in imported
    assert not {m for m in imported if re.fullmatch(r"scipy\.optimize(\..*)?", m)}
