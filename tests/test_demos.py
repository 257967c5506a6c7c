"""The narrated demos run end to end. Each reads the public API, so an
API change that breaks one fails here; the arguments keep every run
under a second."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (arguments, a line fragment its output must hold)
DEMOS = {
    "weak_measurement_tour.py": ((), "worst design residual"),
    "scrambling_tour.py": (("--sites", "4", "--t-max", "4", "--t-step", "0.5"),
                           "onset (first crossing"),
    "brownian_clustering.py": (("--sites", "3", "--trajectories", "8"), "fitted rate"),
}


@pytest.mark.parametrize("script", list(DEMOS))
def test_demo_runs(script):
    args, expected = DEMOS[script]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
