"""Smoke runs of the demo scripts: each must exit cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 05 (the SCF molecule, ~20 s) is left out to keep the suite short
DEMOS = [
    "01_spectral_toolkit.py",
    "02_zero_mode_gallery.py",
    "03_stability_threshold.py",
    "04_dilation_instability.py",
    "06_periodic_crystal.py",
    "07_tf_lower_bound.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
