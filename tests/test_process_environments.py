"""Output bytes do not depend on the process environment.

numpy picks its SIMD kernels from the host's CPU features, and Python salts
``str`` hashes per process.  A reduction whose order followed the SIMD width,
or a set iteration that reached the output, would make the bytes depend on
the host or the run.  Each case reruns a fixed set in a subprocess, with
numpy's dispatched targets switched off or with a fixed hash seed, and
compares the sha256 of every output with the one computed in this process.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy._core._multiarray_umath as umath
import pytest
from test_bell import bell_path_digest

from mzpair.cli import main

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

COMMANDS = [
    ["bell", "--r", "0.3", "--phi", "0"],
    ["optimize"],
    ["gravity", "--mass", "2.23e-13", "--length", "1e-4", "--distance", "1e-6"],
]


def digests():
    """sha256 of each command's stdout and exit code, and of the bell path's cells and verdicts."""
    out = {}
    for argv in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        out[" ".join(argv)] = [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]
    out["bell path"] = bell_path_digest()[0]
    return out


# Also reports which of numpy's dispatched targets the subprocess runs with.
SCRIPT = """
import json
import numpy._core._multiarray_umath as umath
import test_process_environments as case
enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]
print(json.dumps({"digests": case.digests(), "enabled": enabled}))
"""

# numpy refuses to disable a name that is not a dispatched target, so they are read at run time.
ENVIRONMENTS = {
    "numpy baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(umath.__cpu_dispatch__)},
    "hash seed 0": {"PYTHONHASHSEED": "0"},
    "hash seed 1": {"PYTHONHASHSEED": "1"},
}


@pytest.fixture(scope="module")
def here():
    return digests()


@pytest.mark.parametrize("name", ENVIRONMENTS)
def test_outputs_match_in_another_process_environment(here, name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.update(ENVIRONMENTS[name])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    there = json.loads(result.stdout)
    if "NPY_DISABLE_CPU_FEATURES" in ENVIRONMENTS[name]:
        assert there["enabled"] == []
    assert there["digests"] == here
