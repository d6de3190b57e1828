"""The package API that the benchmark under perfbench/ calls.

perfbench/workloads.py and perfbench/spans.py are imported as they are, from
the checkout, and never edited here: these tests fail when a change to src/
removes or renames something the benchmark looks up.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hjvisc as hv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_attributes_exist():
    spans = _load("spans")
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in spans._swaps(hv)
               if not callable(getattr(mod, attr, None))]
    assert missing == []
    assert callable(hv.adjoint.evolve_fokker_planck)


@pytest.mark.parametrize("name", ["sweep", "adjoint", "generic"])
def test_workload_warmup_passes(name, workloads, tmp_path):
    outcome = workloads.WORKLOADS[name](hv, 1, tmp_path).warmup()
    assert outcome.correct, outcome.problems
    if name == "sweep":
        # all points are attempted; the n = 16384 roundoff-floor failures count
        # as failed operations, not as wrong output
        assert outcome.attempted == 40
    else:
        assert outcome.failed == 0, outcome.problems


def _fresh(code):
    """stdout of `code` run by a fresh interpreter on this checkout's src/, with
    every warning an error."""
    src = str(Path(hv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout


def test_import_loads_no_heavy_scipy_subpackage():
    """`import hjvisc` loads scipy's LAPACK extension and not the scipy.linalg
    package, whose init pulls in numpy.f2py, numpy.testing and numpy.ma (about
    24 MB of RSS and 0.2 s on every start); integrate, optimize, sparse and
    special would add about 22 MB more."""
    heavy = ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma", "scipy.integrate",
             "scipy.optimize", "scipy.sparse", "scipy.special")
    out = _fresh(f"import sys, hjvisc; print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    assert out.split() == []


def _first_newton_step():
    """The first certified solve of a pendulum Newton chain, at n = 2048: the
    sha256 of its solution."""
    import hashlib

    steps = []
    certified = hv.tridiag.solve_cyclic_tridiagonal

    def capture(matrix, rhs):
        steps.append((matrix, rhs))
        return certified(matrix, rhs)

    hv.viscous.solve_cyclic_tridiagonal = capture
    try:
        hv.solve_viscous(hv.pendulum_hamiltonian(), 1e-2, 1e-2 ** 1.6, hv.Grid1D(2048))
    finally:
        hv.viscous.solve_cyclic_tridiagonal = certified
    return hashlib.sha256(certified(*steps[0]).tobytes()).hexdigest()


@pytest.mark.parametrize("first, second", [("scipy.linalg", "hjvisc"),
                                           ("hjvisc", "scipy.linalg")])
def test_either_import_order_shares_one_dgtsv(first, second):
    """Whichever of hjvisc and scipy.linalg a fresh process imports first, both
    hold the one scipy.linalg._flapack module, and a certified solve keeps its
    bits."""
    import inspect

    code = "\n".join([f"import {first}", f"import {second}", "import sys",
                       "import hjvisc as hv", inspect.getsource(_first_newton_step),
                       "print(hv.tridiag.lapack.dgtsv is scipy.linalg.lapack.dgtsv,",
                       "      hv.tridiag.lapack is sys.modules['scipy.linalg._flapack'],",
                       "      _first_newton_step())"])
    assert _fresh(code).split() == ["True", "True", _first_newton_step()]
