"""coflownet loads scipy's HiGHS binding and sparse kernels from their
files, so a process that imports it never imports the ``scipy.optimize``
or ``scipy.sparse`` packages, and one that imports them too shares each
extension module."""

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


def test_import_leaves_scipy_sparse_out():
    _fresh("-c", """
import coflownet, sys
assert {m for m in sys.modules if m.startswith("scipy.sparse")} == {"scipy.sparse._sparsetools"}
""")


def test_a_later_scipy_sparse_shares_the_kernels():
    _fresh("-c", SOLVE_DEMO + """
import sys
import coflownet.csr
assert "scipy.sparse" not in sys.modules
import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools
assert _sparsetools is coflownet.csr._sparsetools
m = scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
assert (m @ np.array([1.0, 1.0])).tolist() == [1.0, 5.0]
""")


def test_an_earlier_scipy_sparse_is_reused():
    _fresh("-c", """
import importlib.util, sys
import scipy.sparse
kernels = sys.modules["scipy.sparse._sparsetools"]
load = importlib.util.spec_from_file_location
def load_again(name, *args, **kwargs):
    assert name != "scipy.sparse._sparsetools", "the kernels were loaded a second time"
    return load(name, *args, **kwargs)
importlib.util.spec_from_file_location = load_again
import coflownet.csr
assert coflownet.csr._sparsetools is kernels
""" + SOLVE_DEMO)


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
assert "scipy.sparse" in sys.modules
assert coflownet.csr._sparsetools is sys.modules["scipy.sparse._sparsetools"]
""" + SOLVE_DEMO)


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_cli_never_imports_scipy_optimize(tmp_path, command):
    inst = tmp_path / "demo.json"
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), inst)
    done = _fresh("-X", "importtime", "-m", "coflownet", command, inst)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "numpy" in imported
    assert not {m for m in imported if re.fullmatch(r"scipy\.optimize(\..*)?", m)}


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_cli_never_imports_scipy_sparse(tmp_path, command):
    inst = tmp_path / "demo.json"
    save_instance(demo_instance(RoutingModel.SINGLE_PATH), inst)
    done = _fresh("-X", "importtime", "-m", "coflownet", command, inst)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "numpy" in imported
    assert not {m for m in imported if re.fullmatch(r"scipy\.sparse(\..*)?", m)}
