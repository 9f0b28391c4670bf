"""sphdefect benchmark runner: one workload, closed loop, fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` (nothing is installed or built).

Each pass runs in a fresh interpreter (perfbench/child.py), one after the
other.  After MIN_PASSES passes, a pass starts only if, taking as long as
the one before it, it ends within ``--seconds`` of the first one's start.
``wall_s`` is the fastest pass of the run.  Set-up is measured in every
pass and topped up with import-only probes to SETUP_SAMPLES samples.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced
passes and one untraced pass, and reports the per-layer metrics and the
tracing overhead.

The last stdout line is the result object; a human-readable report goes to
stderr and a JSON record (run record, passes, trace report and the spans
of the median traced pass) to .bench_out/ in the checkout.  Metric and
workload names are checked against BENCHMARK.json before printing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PACKAGE = ROOT / "src" / "sphdefect" / "__init__.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5
MIN_PASSES = 2  # so that wall_s is never a single pass of a long workload
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0  # start no pass that could end past this, given the last one


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every pass compiles the same way
    return env


def _spawn(args: list) -> tuple[float, dict | None, str]:
    """Run one child; returns (spawn time, parsed last line or None, error)."""
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True, check=False)
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"pass exceeded {CHILD_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t_spawn, None, f"pass exited with code {proc.returncode}"
    try:
        return t_spawn, json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return t_spawn, None, "pass printed no result line"


def _machine() -> dict:
    rec = {"nproc": os.cpu_count(), "cpu_model": None, "l2_bytes": None, "l3_bytes": None}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    for level in (2, 3):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10, check=False).stdout.strip()
            rec[f"l{level}_bytes"] = int(out) if out.isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rec


def _source_record() -> dict:
    rec = {"commit": None,
           "src_lines": sum(len(p.read_text().splitlines())
                            for p in sorted(PACKAGE.parent.glob("*.py")))}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0:
            rec["commit"] = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE.is_file():
        print(f"error: no sphdefect package at {PACKAGE.relative_to(ROOT)}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    if args.workload not in declared:
        print(f"error: unknown workload {args.workload!r}; declared: {sorted(declared)}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    passes, setups, problems = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    last = 0.0

    def run_pass(trace: int):
        nonlocal attempted, failed, last
        t0 = time.perf_counter()
        t_spawn, res, err = _spawn(child_args + ["--trace", str(trace)])
        last = time.perf_counter() - t0
        if res is None:
            attempted += 1
            failed += 1
            problems.append(err)
            return None
        setups.append(res["t_imported"] - t_spawn)
        attempted += res["attempted"]
        failed += res["failed"]
        problems.extend(f"{k}: {v}" for k, v in res["errors"].items())
        res["traced"] = bool(trace)
        passes.append(res)
        return res

    # closed loop: the next pass starts when the previous one has ended and,
    # past MIN_PASSES, only if, taking as long as the last one, it ends
    # within --seconds
    while True:
        res = run_pass(args.trace)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
            break
        if elapsed + last > RUN_BUDGET_S:
            break
        if res is None and len(problems) >= 3:
            break
    if traced:
        run_pass(0)  # untraced reference for the tracing overhead
    probe_env = None
    while len(setups) < SETUP_SAMPLES or probe_env is None:
        t_spawn, res, err = _spawn(["--probe"])
        if res is None:
            print(f"error: set-up probe failed: {err}", file=sys.stderr)
            return 1
        setups.append(res["t_imported"] - t_spawn)
        probe_env = res["environment"]

    main_passes = [p for p in passes if p["traced"] == traced]
    if not main_passes:
        print("error: no pass completed; " + "; ".join(problems), file=sys.stderr)
        return 1
    report = {}
    if traced:
        names = list(main_passes[0]["layers"])
        metrics = {n: statistics.median([p["layers"][n] for p in main_passes]) for n in names}
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        traced_wall = statistics.median([p["wall_s"] for p in main_passes])
        report["overhead_s"] = traced_wall - plain[0] if plain else None
        report["untraced_wall_s"] = plain[0] if plain else None
        mid = sorted(main_passes, key=lambda p: p["wall_s"])[(len(main_passes) - 1) // 2]
        report["median_pass"] = mid["trace"]
        report["spans"] = mid["spans"]
        counts = {k: {p["trace"]["counts"][k] for p in main_passes}
                  for k in mid["trace"]["counts"]}
        report["counts_repeat_exactly"] = all(len(v) == 1 for v in counts.values())
        for p in main_passes:
            del p["spans"]
    else:
        tails = [p["certified_rel_tail"] for p in main_passes
                 if not math.isnan(p["certified_rel_tail"])]
        if not tails:
            print("error: no pass produced certified_rel_tail; " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        metrics = {
            # the fastest pass: a shared host only ever adds time to a pass
            "wall_s": min(p["wall_s"] for p in main_passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in main_passes]),
            "certified_rel_tail": max(tails),
        }
    if set(metrics) != set(units):
        print(f"error: metric names {sorted(metrics)} differ from BENCHMARK.json "
              f"{kind} {sorted(units)}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "environment": probe_env,
              "source": _source_record(), "setup_samples_s": setups,
              "passes": passes, "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics, **report}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    _print_report(record, units)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def _print_report(rec: dict, units: dict) -> None:
    def say(line=""):
        print(line, file=sys.stderr)

    m, e, s = rec["machine"], rec["environment"], rec["source"]
    say(f"sphdefect bench: {rec['workload']}  seed {rec['seed']}  "
        f"trace {rec['trace']}  passes {len(rec['passes'])}")
    say(f"  machine: {m['nproc']} cpus, {m['cpu_model']}, L2 {m['l2_bytes']} B, "
        f"L3 {m['l3_bytes']} B")
    say(f"  python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
        f"BLAS {e['blas']} ({e.get('blas_config')}), {e.get('blas_threads')} threads")
    say(f"  commit {s['commit'] or 'unknown (not a git checkout)'}, "
        f"src/ {s['src_lines']} lines")
    for name, value in rec["metrics"].items():
        say(f"  {name:34s} {value:.6g} {units[name]}")
    walls = [p["wall_s"] for p in rec["passes"] if p["traced"] == bool(rec["trace"])]
    say(f"  pass wall times over {len(walls)} passes: min {min(walls):.4f} s, "
        f"median {statistics.median(walls):.4f} s, max {max(walls):.4f} s")
    ratio = rec["failed"] / rec["attempted"]
    say(f"  {'fail_ratio':34s} {ratio:.6g} ratio "
        f"({rec['failed']} failed / {rec['attempted']} attempted)")
    for problem in rec["problems"]:
        say(f"  FAILED {problem}")
    if rec["trace"]:
        mid = rec["median_pass"]
        say(f"  median traced pass: wall {mid['wall_s']:.4f} s = "
            f"layer self times + remainder")
        for stage, row in mid["stages"].items():
            say(f"    {stage:32s} self {row['self']:9.4f} s  busy {row['busy']:9.4f} s  "
                f"calls {row['calls']}")
        say(f"    {'unattributed remainder':32s} self {mid['remainder_s']:9.4f} s")
        if rec["overhead_s"] is not None:
            say(f"  tracing overhead: traced wall - untraced wall = {rec['overhead_s']:.4f} s "
                f"(untraced {rec['untraced_wall_s']:.4f} s)")
        if not rec["counts_repeat_exactly"]:
            say("  WARNING: computed counts differ between traced passes")
        if mid["missing_hooks"]:
            say(f"  WARNING: hook targets not found: {', '.join(mid['missing_hooks'])}")


if __name__ == "__main__":
    sys.exit(main())
