"""Importing the package and the server CLI must not load the scipy
modules that only the model solvers and fit statistics use."""

import os
import subprocess
import sys
from pathlib import Path

import repro

DEFERRED = ("scipy.stats", "scipy.optimize")


def test_server_import_leaves_heavy_scipy_unloaded():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, repro, repro.service.cli\n"
        f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
