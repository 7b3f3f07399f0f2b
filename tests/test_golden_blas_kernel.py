"""The golden corpus under another OpenBLAS kernel.

OpenBLAS picks its kernel from the CPU, and the summation order of
SuperLU's BLAS calls in the stationary solve depends on it.  Matrix
products no longer use BLAS: every ``NonnegMatrix`` calls scipy's
sparsetools kernels, whose order is fixed.  The corpus is recorded where
OpenBLAS picks ``SkylakeX``.  Here it reruns in a child process with
``OPENBLAS_CORETYPE=Haswell``, the kernel of an AVX2 host, set in that
child's environment only.  Until the stationary solve leaves BLAS, the
digests that move must be among the two known to depend on the kernel.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import filtermc as fm
from test_golden_cli import CORPUS, environment

# the b5 jobs use its stationary vector, whose last bits come from SuperLU
KERNEL_DEPENDENT = {
    "evolve b5 t2",
    "entropy b5 h3 --bracket --mc samples=200 burn=20 seed=6",
}

_CHILD = """\
import json, sys
from pathlib import Path
from test_golden_cli import blas_cores, digests
jobs = digests(Path(sys.argv[1]))
print(json.dumps({"cores": blas_cores(), "jobs": jobs}))
"""


def test_only_the_known_digests_move_under_the_haswell_kernel(tmp_path):
    golden = json.loads(CORPUS.read_text())
    assert {k: golden["environment"].get(k) for k in environment()} == environment()
    assert KERNEL_DEPENDENT <= set(golden["jobs"])
    paths = [str(Path(fm.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    if done.returncode == -signal.SIGILL:
        pytest.skip("this CPU cannot run the Haswell kernel")
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    if set(child["cores"].values()) != {"Haswell"}:
        pytest.skip(f"OPENBLAS_CORETYPE did not set the kernel: {child['cores']}")
    assert list(child["jobs"]) == list(golden["jobs"])
    moved = {name for name, d in child["jobs"].items() if d != golden["jobs"][name]}
    assert moved <= KERNEL_DEPENDENT, f"kernel-dependent digests: {sorted(moved)}"
