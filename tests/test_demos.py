"""The demo scripts run to completion against the library in ``src``.

Demos 02, 03 and 04 take well under a second each and run here as
subprocesses.  Demo 01 is left out: it takes about ten seconds, and its
``optimize`` work is what acceptance criterion 4 and ``evolin sanity``
already run.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["02_step_size_adaptation_trace.py",
                                  "03_train_cartpole.py",
                                  "04_distributed_training.py"])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
