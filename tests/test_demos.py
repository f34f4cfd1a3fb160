import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("decoherence_decay.py", "entropy_dynamics.py", "fractional_revivals.py",
         "husimi_gallery.py", "pacs_dominance.py")


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    # each demo writes only under the git-ignored demos/output/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
