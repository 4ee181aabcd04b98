"""Benchmark of the beststop command line: exact answers end to end, per layer.

    python3 perfbench/run.py --workload tree-solve --seed 1 --seconds 30 --trace 0

Every pass of a workload runs its command list through beststop.cli.main in
a fresh process (perfbench/worker.py), with stdout captured in memory and
checked against independent references (perfbench/workloads.py), and with
BESTSTOP_CACHE pointing at an empty directory of its own.  Passes repeat
until --seconds is used up; the run reports medians over passes:

  wall_s       seconds to run the command list, untraced
  setup_s      seconds from process start until beststop.cli is imported and
               the cache directory exists, over the passes and extra
               set-up-only processes
  peak_rss_mb  ru_maxrss of an untraced pass, MiB

With --trace 1 the passes alternate untraced and traced (perfbench/tracer.py)
and the run reports the per-layer metrics of the traced passes, plus
trace.overhead_s, the traced minus the untraced wall_s.  Spans of the last
traced pass are written to perfbench/out/spans-<workload>.jsonl.

The last line of stdout is the result object; the line before it holds run
metadata (Python, CPUs, commit, src/beststop line count, seed), the
figures of every pass, and fail_frac, the share of commands that failed or
answered wrongly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5  # set-up-only processes per run, besides each pass's own set-up
RUN_LIMIT_S = 170  # a run must end within 180 s


def spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter, wait for it, and return its report."""
    cmd = [sys.executable, "-I", str(ROOT / "perfbench" / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{' '.join(cmd)} ran past {timeout:.0f} s") from None
    finally:
        for left in OUT.glob("cache-*"):  # a killed worker cannot clean up
            shutil.rmtree(left, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def metadata(seed: int) -> dict:
    src = ROOT / "src" / "beststop"
    files = sorted(src.glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "beststop" / "cli.py").is_file():
        print(f"error: no beststop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    def worker(kind: str) -> dict:
        return spawn([str(ROOT), args.workload, str(args.seed), repr(time.monotonic()), kind]
                     + (["tiny"] if args.tiny else []), left())

    setups = [worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    passes: dict[str, list[dict]] = {k: [] for k in kinds}
    measuring = time.monotonic()
    while True:
        for kind in kinds:
            rep = worker(kind)
            setups.append(rep["setup_s"])
            passes[kind].append(rep)
        # another round only if it is likely to end by --seconds
        elapsed = time.monotonic() - measuring
        per_round = elapsed / len(passes["plain"])
        if elapsed + per_round / 2 > args.seconds or 2 * per_round > left():
            break

    reps = [r for k in kinds for r in passes[k]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(min(r["attempted"], len({f[0] for f in r["failures"]})) for r in reps)
    for r in reps:
        for i, cmd, why in r["failures"]:
            print(f"FAIL [{i}] {cmd}: {why}", file=sys.stderr)

    plain_wall = statistics.median(r["wall_s"] for r in passes["plain"])
    if args.trace:
        traced = passes["traced"]
        names = traced[0]["layers"]
        metrics = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - plain_wall
        extra = {"traced_wall_s": [r["wall_s"] for r in traced],
                 "accounted_s": [r["accounted_s"] for r in traced],
                 "missing": traced[-1]["missing"],
                 "dropped_spans": traced[-1]["dropped_spans"]}
    else:
        metrics = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes["plain"]),
        }
        extra = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"BENCHMARK.json lists {sorted(set(units) - set(metrics))} "
                           f"but not {sorted(set(metrics) - set(units))}")
    print(json.dumps({
        "metadata": metadata(args.seed),
        "workload": args.workload,
        "fail_frac": failed / attempted,
        "passes": {k: len(v) for k, v in passes.items()},
        "wall_s": [r["wall_s"] for r in passes["plain"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes["plain"]],
        "setup_s": setups,
        **extra,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
