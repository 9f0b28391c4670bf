"""Cold-start guard: the package imports and its common paths run without
loading scipy.stats, scipy.optimize or scipy.linalg.

Those three cost about 0.6 s of import time together, so every fresh
``sphdefect`` process would pay them before doing any work.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = """
import sys
import sphdefect
import sphdefect.cli
from sphdefect import build_grid, clt_experiment, constant_estimate
clt_experiment(3, 4, 20)
constant_estimate(5, "integral", n_lobes=10)
build_grid(4, 20)
print(",".join(m for m in ("scipy.stats", "scipy.optimize", "scipy.linalg")
               if m in sys.modules))
"""


def test_heavy_scipy_modules_stay_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
