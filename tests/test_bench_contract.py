"""The names the benchmark reaches into the package by.

`bench/run.py --trace 1` wraps every function in `tracer.TARGETS`, as its
worker does after importing the package and its CLI, and fails when one is
bound nowhere.  Its set-up code loads the bundled data with
`constructions._load_json`.  Both live outside `src/`, so a rename or a
deletion there would otherwise break only the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import modhadamard
import modhadamard.cli
import run
from tracer import TARGETS, Tracer

assert len(TARGETS) == 16, len(TARGETS)
Tracer().install(modhadamard)
exec(run.SETUP_CODE)
"""


def test_tracer_installs_and_setup_code_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, os.path.join(ROOT, "bench")],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
