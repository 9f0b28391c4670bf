"""Self-check of the benchmark harness; run it after changing perfbench/.

    python3 perfbench/selfcheck.py

1. The workload and metric names the code produces are the ones declared in
   BENCHMARK.json, for an untraced and a traced run of clt-s3-many.
2. A deliberately wrong reference value (C_2 moved by 1e-6 relative) makes
   the constants calls of paper-numbers fail an operation, and the true
   value makes none fail.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Exits 0 when every check holds; each failed check is printed.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def check_names(spec: dict) -> list:
    fails = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        fails.append("declared workloads differ from workloads.NAMES")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               "clt-s3-many", "--seed", "1", "--seconds", "0",
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            fails.append(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fails.append(f"result keys {sorted(result)}")
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != declared:
            fails.append(f"--trace {trace} printed {printed}, declared {declared}")
        if not result["correct"]:
            fails.append(f"--trace {trace} run of clt-s3-many was not correct")
    return fails


def check_wrong_reference() -> list:
    def constants(golden):
        return workloads.Workload("constants", workloads.constants_ops(golden),
                                  lambda results: math.nan)

    golden = workloads.load_golden()
    clean = workloads.execute(constants(golden))
    wrong = copy.deepcopy(golden)
    wrong["constants"]["C_d"]["2"] *= 1.0 + 1e-6
    broken = workloads.execute(constants(wrong))
    fails = []
    if clean["failed"] != 0:
        fails.append(f"true references fail: {clean['errors']}")
    if broken["failed"] == 0:
        fails.append("a wrong C_2 reference made no operation fail")
    return fails


def check_bare_directory() -> list:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "clt-s3-many", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180,
                              check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = {
        "printed names": lambda: check_names(spec),
        "wrong reference fails": check_wrong_reference,
        "bare directory refused": check_bare_directory,
    }
    failed = 0
    for title, fn in checks.items():
        problems = fn()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {title}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
