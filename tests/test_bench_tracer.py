"""The benchmark's tracer installs on the package as it stands.

``perfbench/tracing.py`` wraps package functions and methods by name (the
``linalg`` solvers that nothing in the package calls among them), so deleting
or renaming one breaks every traced benchmark run.  This test installs the
tracer and the Q(i) operation counter in a fresh process and takes them off
again, so that such a deletion fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the wrapped names are read through a function: the tracer also rebinds the
# globals of __main__ that hold one of its targets
CODE = """
import tracing
from germfield import gaussian, linalg

def now():
    return linalg.solve, gaussian.GaussianRational.__add__

before = now()
tracer = tracing.install(tracing.Tracer())
tracing.install_gaussian_counter(tracer)
assert all(a is not b for a, b in zip(now(), before))
tracer.uninstall()
assert all(a is b for a, b in zip(now(), before))
"""


def test_tracer_installs_and_uninstalls():
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    run = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {path!r}\n{CODE}"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
