"""Smoke runs of the demo scripts: each must exit 0.

cli_tour.py is exercised by test_cli.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "mixed_decomposition.py",
    "recovery_sequence.py",
    "single_phase_closed_form.py",
    "microstructure_gallery.py",
    "gamma_rescaling.py",
    "voronoi_isotropy.py",
])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
