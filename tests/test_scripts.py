"""Smoke test: every script in scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tomoprop

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,outputs",
    [
        ("route_comparison.py", ["--theta-count", "48", "-o", "routes"], ["routes_pullback.csv", "routes_green.csv", "routes_pde.csv"]),
        ("kernel_scan.py", ["--k-steps", "2", "-o", "scan"], ["scan_free.csv", "scan_oscillator.csv"]),
        ("slicing_convergence.py", [], []),
    ],
)
def test_script_runs(tmp_path, script, args, outputs):
    src = str(Path(tomoprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert all((tmp_path / name).exists() for name in outputs)
