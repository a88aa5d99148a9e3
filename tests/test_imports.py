"""What the package loads: scipy stays out until ePAL runs, and ePAL loads it
before its run's clock starts.  Each check runs in a fresh interpreter,
because this one has long imported scipy through other tests."""

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


def test_epal_loads_scipy_before_its_clock_starts():
    code = f"""
import sys
from flashtune import baselines, runs, space, synth

before = {SCIPY_MODULES}
at_start = []
init = runs.Trace.__init__

def traced_init(self, *args, **kwargs):
    at_start.append("scipy.linalg" in sys.modules)
    init(self, *args, **kwargs)

runs.Trace.__init__ = traced_init
ds = synth.generate_synthetic("bi-objective-tradeoff", 4, 0)
run = baselines.epal(ds.candidates(), space.TableOracle(ds),
                     baselines.EpalParams(epsilon=0.3, init_size=5), ds.directions)
print(before, at_start, run.measurements_used >= 5)
"""
    assert run_python(code) == "[] [True] True"
