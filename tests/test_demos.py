import os
import subprocess
import sys
from pathlib import Path

import pytest

import dagzip

ROOT = Path(__file__).resolve().parent.parent
# Demo 02 runs a rook g=100 baseline Kruskal (several seconds); it is left out.
FAST_DEMOS = ["01_compress_and_decompress.py", "03_rook_gap.py", "04_hardness_reductions.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    # run against the same dagzip the tests import
    env = dict(os.environ)
    src = str(Path(dagzip.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
