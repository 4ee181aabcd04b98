"""The benchmark's own test: every workload at tiny sizes, plus its checkers.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_no_failure(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    assert info["fail_frac"] == 0
    assert info["metadata"]["src_lines"] > 0 and info["metadata"]["seed"] == 5
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if trace:
        assert info["missing"] == []
        # layer self times and cli overhead add up to the traced wall time
        for wall, accounted in zip(info["traced_wall_s"], info["accounted_s"]):
            assert accounted == pytest.approx(wall, rel=0.05)
        if workload == "triangle-sweep":
            assert result["metrics"]["cache.hits"]["value"] == 2
            assert result["metrics"]["cache.misses"]["value"] == 2
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / "perfbench" / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench("tree-solve", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def _result(argv, out, rc=0, cache=None):
    return {"argv": argv, "rc": rc, "out": out, "err": "", "cache": cache or {}}


def test_checker_rejects_wrong_values():
    strike = ["solve", "--class", "231", "--n", "6", "--mode", "strike"]
    trigger = ["solve", "--class", "231", "--n", "6", "--mode", "trigger"]
    good = _result(strike, "optimal strike set {1}\nvalue = 42/132 (~0.31)\n")
    assert workloads.check("tree-solve", [good]) == []
    wrong = _result(trigger, "optimal trigger set {1}\nvalue = 43/132 (~0.32)\n")
    assert [i for i, _ in workloads.check("tree-solve", [good, wrong])] == [1]
    crashed = _result(trigger, "", rc=1)
    assert [i for i, _ in workloads.check("tree-solve", [good, crashed])] == [1]
    sim = ["simulate", "--class", "321", "--n", "5", "--strategy", "threshold:strike",
           "--trials", "1000", "--seed", "1"]
    far = _result(sim, "wins 400/1000 (~0.4, std error 0.015, seed 1)\n")
    assert workloads.check("strategy-play", [far]) != []


def test_checker_needs_a_cold_miss_and_a_warm_hit():
    cmd = ["triangle", "--rows", "60", "--emit", "sigma", "--mode", "strike"]
    out = "i,sigma\n" + "".join(f"{i},{v}\n" for i, v in enumerate(
        workloads.SIGMA_HEADS["strike"]))
    stored = {"triangle-strike-60.json": [1, 10, 99]}
    cold = _result(cmd, out, cache=stored)
    assert workloads.check("triangle-sweep", [cold, _result(cmd, out, cache=stored)]) == []
    rewritten = {"triangle-strike-60.json": [2, 11, 99]}
    assert workloads.check("triangle-sweep", [cold, _result(cmd, out, cache=rewritten)]) != []
    assert workloads.check("triangle-sweep", [_result(cmd, out)]) != []  # nothing stored
    changed = out.replace("2,4", "2,5")
    assert workloads.check("triangle-sweep", [cold, _result(cmd, changed, cache=stored)]) != []
