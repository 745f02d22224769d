"""The demos run end to end.

Each demo is a script a reader runs by hand, so nothing else would notice an
API change that breaks one.  Each runs in a subprocess against this checkout's
``src``, with its temporary files under the test's own directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["boundary_detector_tour", "metrics_tour", "synthetic_pipeline"])
def test_demo_exits_zero(name, tmp_path):
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
