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


def test_import_loads_no_heavy_scipy_subpackage():
    """`import hjvisc` loads scipy.linalg only: integrate, optimize, sparse and
    special would add about 22 MB of RSS and 0.2-0.3 s to every start."""
    src = str(Path(hv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, hjvisc; print(' '.join(m for m in ('scipy.integrate', "
            "'scipy.optimize', 'scipy.sparse', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []
