import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


# grid_resolution_bias.py (about 3.6 s) is left out for its run time
@pytest.mark.parametrize("name", ["oscillatory_tail.py", "constant_two_routes.py",
                                  "clt_convergence.py", "gaunt_identities.py",
                                  "variance_asymptotics.py"])
def test_demo_runs(name):
    # each demo calls the public API the way a user does, so a change to
    # that API breaks them first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(_ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
