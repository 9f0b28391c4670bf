"""Import guards.

Cold start: the package imports, and every path that uses one of its own
special functions runs, without loading any SciPy module.  SciPy's import
cost about 0.38 s, so every fresh ``sphdefect`` process paid it before
doing any work.  The sampler's OpenBLAS handle is looked up on its first
call, not at import, and its workers are plain threads: neither import
nor the sampler loads ``concurrent.futures`` or ``logging`` (5-8 ms of
import) unless numpy loads it itself, and import loads no ``statistics``
(with ``fractions`` and ``decimal``), which only the Wasserstein-1
statistic uses.

Stale exports: every name a module lists in ``__all__`` exists on it, so a
deletion that misses its export fails here.
"""

import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_MODULES = ["sphdefect"] + [f"sphdefect.{m.name}" for m in
                            pkgutil.iter_modules([os.path.join(_SRC, "sphdefect")])]

# modules a thread pool would load; the sampler's workers need neither
_POOL_MODULES = ("concurrent.futures", "logging")
_LOADED = f"""
def loaded():
    return " ".join(str(m in sys.modules) for m in {_POOL_MODULES!r})
"""

# what the Wasserstein-1 statistic's statistics.NormalDist loads, 3.6-6 ms
# of import after numpy; it is imported on the statistic's first call
_LAZY_MODULES = ("statistics", "fractions", "decimal")

_PROBE = """
import sys
import sphdefect
import sphdefect.cli
from sphdefect import (build_grid, c_coefficient, clt_experiment, constant_estimate,
                       exact_variance, gaunt_table, montecarlo, variance_closed_form)
lazy = ",".join(m for m in """ + repr(_LAZY_MODULES) + """ if m in sys.modules)
""" + _LOADED + """
print(loaded(), montecarlo._openblas.cache_info().currsize)
exact_variance(2, 40)
variance_closed_form(2, 40)
for d in (2, 4, 5):
    for method in ("series", "integral"):
        constant_estimate(d, method, q_terms=20, n_lobes=10)
c_coefficient(2, 3)
gaunt_table(2, 4)
clt_experiment(3, 4, 200)
print(loaded())
build_grid(3, 20)
print(",".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(lazy)
"""

# what the package's own third-party imports load on their own
_DEPENDENCY_PROBE = """
import sys
import numpy
""" + _LOADED + """
print(loaded())
"""


@functools.cache
def _probe(code: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return tuple(out.splitlines())


def test_scipy_stays_unloaded():
    assert _probe(_PROBE)[2].strip() == ""


def test_import_leaves_normal_distribution_unloaded():
    assert _probe(_PROBE)[3] == ""


def _unless_numpy_loads(line: str) -> list:
    # the pool modules a probe line shows loaded that numpy does not load
    numpy_loads = _probe(_DEPENDENCY_PROBE)[0].split()
    return [m for m, seen, dep in zip(_POOL_MODULES, line.split(), numpy_loads)
            if seen == "True" and dep != "True"]


def test_sampler_threads_load_lazily():
    # the OpenBLAS handle is looked up on the first sampler call, not at
    # import, and import loads no pool module numpy does not load itself
    *at_import, handles = _probe(_PROBE)[0].split()
    assert handles == "0"
    assert _unless_numpy_loads(" ".join(at_import)) == []


def test_sampler_workers_load_no_pool_module():
    # clt_experiment(3, 4, 200) runs 4 batches, on worker threads when
    # more than one core is available
    assert _unless_numpy_loads(_probe(_PROBE)[1]) == []


@pytest.mark.parametrize("name", _MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
