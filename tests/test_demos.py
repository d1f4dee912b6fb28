"""The demo scripts run to completion.

Each demo runs in its own interpreter from the repository root, with
``src`` first on the import path, as the README tells a reader to run
them, and with RuntimeWarning raised as an error, as in the tests
themselves (pyproject's filter does not reach a child). Demo 03 (the
snowflake band on three corpora, about 30 s) is left out; the others
take a few seconds together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["00_transforms", "01_generate_and_stats", "02_single_scale_l2",
         "04_distance_labels", "05_l1_cuts", "06_linf_threshold",
         "07_decomposition_extension"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
