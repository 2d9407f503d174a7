"""The demo scripts run to completion, with every warning an error.

pyproject's ``filterwarnings`` does not reach a subprocess, so each demo
runs under ``python -W error``. The two fit demos drive ``fit_tree``,
``voxel_iou``, ``export_level_obj`` and ``save_tree`` through the package's
public names; each takes a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqdecomp

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script",
    ["fit_dumbbell_tree.py", "fit_sphere.py", "split_fields.py", "superquadric_gallery.py"],
)
def test_demo_exits_0(script, tmp_path):
    src = str(Path(sqdecomp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
