"""One benchmark pass in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
imports sphdefect first, so the moment right after that import marks the
end of set-up, then times one pass of the workload, runs the checks
outside the timed interval and prints one JSON line on stdout.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1
    python3 perfbench/child.py --probe       # set-up only, plus run record
"""

import time

import sphdefect

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _environment() -> dict:
    """Library versions and the BLAS that numpy calls, with its threads."""
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "sphdefect": sphdefect.__version__}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                env["blas_threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    env["blas_config"] = get_config().decode()
                break
    return env


def _pass(name: str, seed: int, traced: bool) -> dict:
    import workloads
    from spans import Tracer, layer_metrics

    work = workloads.build(name, seed, workloads.load_golden())
    tracer = Tracer() if traced else None
    out = workloads.execute(work, tracer)
    out["t_imported"] = T_IMPORTED
    if tracer is not None:
        summary = tracer.summary(out["wall_s"])
        out["trace"] = summary
        out["layers"] = layer_metrics(summary, work.realizations)
        out["spans"] = tracer.spans
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        out = {"t_imported": T_IMPORTED, "environment": _environment()}
    else:
        out = _pass(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
