"""What the package loads: scipy stays out until ePAL runs, and ePAL then
loads only scipy's LAPACK extension, before its run's clock starts.  Each
check runs in a fresh interpreter, because this one has long imported scipy
through other tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flashtune

SRC = Path(flashtune.__file__).resolve().parents[1]

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["flashtune", "flashtune.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert run_python(f"import sys, {module}; print({SCIPY_MODULES})") == "[]"


def test_cli_help_leaves_scipy_unloaded():
    code = f"""
import runpy, sys
sys.argv = ["flashtune", "--help"]
try:
    runpy.run_module("flashtune", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print({SCIPY_MODULES})
"""
    assert run_python(code) == "[]"


def test_epal_loads_lapack_before_its_clock_starts():
    """ePAL loads scipy's LAPACK extension before its `Trace` starts, and
    nothing else of scipy: after the run that extension is the only scipy
    module loaded.  A later `import scipy.linalg` reuses it."""
    code = f"""
import sys
from flashtune import baselines, gp, runs, space, synth

before = {SCIPY_MODULES}
at_start = []
init = runs.Trace.__init__

def traced_init(self, *args, **kwargs):
    at_start.append({SCIPY_MODULES})
    init(self, *args, **kwargs)

runs.Trace.__init__ = traced_init
ds = synth.generate_synthetic("bi-objective-tradeoff", 5, 0)
run = baselines.epal(ds.candidates(), space.TableOracle(ds),
                     baselines.EpalParams(epsilon=0.3), ds.directions)
after = {SCIPY_MODULES}
import scipy.linalg
shared = [getattr(scipy.linalg.lapack, f) is getattr(gp.lapack(), f)
          for f in ("dpotrf", "dpotrs", "dtrtrs")]
print(before, at_start, after, run.measurements_used >= 20, shared)
"""
    flapack = "['scipy.linalg._flapack']"
    assert run_python(code) == f"[] [{flapack}] {flapack} True [True, True, True]"
