"""One workload pass in a fresh process; run by run.py, not by hand.

    python3 -I perfbench/worker.py <root> <workload> <seed> <spawned> <kind> [tiny]

<spawned> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start, the import of beststop.cli and the creation of this
process's own empty cache directory.  <kind> is "setup" (stop there),
"plain" (run the commands untraced) or "traced".  The last line printed is
a JSON object with the pass's measurements.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _snapshot(cache: Path) -> dict:
    return {e.name: [e.inode(), e.stat().st_mtime_ns, e.stat().st_size]
            for e in os.scandir(cache) if e.name.endswith(".json")}


def main(argv: list[str]) -> int:
    root, workload, seed, spawned, kind = argv[:5]
    tiny = argv[5:] == ["tiny"]
    root = Path(root)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from beststop import cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "beststop").resolve():
        raise SystemExit(f"imported beststop from {cli.__file__}, not from {root / 'src'}")
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=root / "perfbench" / "out"))
    os.environ["BESTSTOP_CACHE"] = str(cache)
    setup_s = time.monotonic() - float(spawned)
    try:
        report = {"setup_s": setup_s}
        if kind != "setup":
            report.update(run_pass(root, workload, int(seed), kind == "traced", tiny, cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run_pass(root: Path, workload: str, seed: int, traced: bool, tiny: bool,
             cache: Path) -> dict:
    from beststop import cli
    import workloads

    tracer = None
    main = cli.main
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    results = []
    wall = 0.0
    for argv in workloads.plan(workload, seed, tiny):
        out, err = io.StringIO(), io.StringIO()
        run = tracer.wrap(f"cli.{argv[0]}", main) if traced else main
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run(argv)
            except Exception as e:  # a traceback is a failed command, not a crash
                rc = f"{type(e).__name__}: {e}"
        wall += time.perf_counter() - t0
        results.append({"argv": argv, "rc": rc, "out": out.getvalue(),
                        "err": err.getvalue(), "cache": _snapshot(cache)})
    report = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(results),
        "failures": [[i, " ".join(results[i]["argv"]), why]
                     for i, why in workloads.check(workload, results)],
        "stdout_bytes": sum(len(r["out"].encode()) for r in results),
    }
    if traced:
        report["layers"] = layers = layer_metrics(tracer, report["stdout_bytes"])
        if workload == "triangle-sweep" and (layers["cache.misses"], layers["cache.hits"]) != (2, 2):
            report["failures"].append([None, "cache", f"{layers['cache.misses']} misses and "
                                       f"{layers['cache.hits']} hits, expected 2 and 2"])
        report["missing"] = missing
        report["dropped_spans"] = tracer.dropped
        # every second inside a cli span belongs to exactly one span's self time
        report["accounted_s"] = sum(s[2] for s in tracer.stats.values())
        tracer.write(root / "perfbench" / "out" / f"spans-{workload}.jsonl")
    return report


def layer_metrics(tracer, stdout_bytes: int) -> dict:
    from beststop import prefixtree

    st, c = tracer.stats, tracer.counts

    def calls(name):
        return st.get(name, [0])[0]

    def self_s(name):
        return st.get(name, [0, 0.0, 0.0])[2]

    info = prefixtree.cached_tree.cache_info()
    return {
        "permutations.child_indices.calls": calls("permutations.child_indices"),
        "permutations.child_indices.self_s": self_s("permutations.child_indices"),
        "permutations.enumerate_class.members": c["permutations.enumerate_class.members"],
        "permutations.enumerate_class.self_s": self_s("permutations.enumerate_class"),
        "prefixtree.build.calls": calls("prefixtree.build"),
        "prefixtree.build.self_s": self_s("prefixtree.build"),
        "prefixtree.build.peak_mb": c["prefixtree.build.peak_mb"],
        "prefixtree.nodes": c["prefixtree.nodes"],
        "prefixtree.cached_tree.hits": info.hits,
        "prefixtree.cached_tree.misses": info.misses,
        "optimizer.calls": tracer.calls("optimizer."),
        "optimizer.self_s": tracer.self_s("optimizer."),
        "optimizer.nodes": c["optimizer.nodes"],
        "closedform.continuation_triangle.self_s": self_s("closedform.continuation_triangle"),
        "closedform.entries": c["closedform.entries"],
        "closedform.max_entry_bits": c["closedform.max_entry_bits"],
        "closedform.optimal_boundary.self_s": self_s("closedform.optimal_boundary"),
        "closedform.fit_shifted_ballot.self_s": self_s("closedform.fit_shifted_ballot"),
        "tallies.ballot.calls": calls("tallies.ballot"),
        "tallies.shifted_ballot.calls": calls("tallies.shifted_ballot"),
        "tallies.self_s": tracer.self_s("tallies."),
        "cache.store_triangle.self_s": self_s("cache.store_triangle"),
        "cache.load_triangle.self_s": self_s("cache.load_triangle"),
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
        "cache.bytes_written": c["cache.bytes_written"],
        "strategy.play.calls": calls("strategy.play"),
        "strategy.play.self_s": self_s("strategy.play"),
        "strategy.sample_uniform.calls": calls("strategy.sample_uniform"),
        "strategy.sample_uniform.self_s": self_s("strategy.sample_uniform"),
        "strategy.exact_success.self_s": self_s("strategy.exact_success"),
        "rng.below.calls": calls("rng.below"),
        "rng.next64.calls": calls("rng.next64"),
        "rng.self_s": tracer.self_s("rng."),
        "bijections.west_correspondence.self_s": self_s("bijections.west_correspondence"),
        "bijections.west_pairs": c["bijections.west_pairs"],
        "bijections.verify_tree_isomorphism.self_s": self_s("bijections.verify_tree_isomorphism"),
        "cli.solve.s": st.get("cli.solve", [0, 0.0])[1],
        "cli.triangle.s": st.get("cli.triangle", [0, 0.0])[1],
        "cli.simulate.s": st.get("cli.simulate", [0, 0.0])[1],
        "cli.verify.s": st.get("cli.verify", [0, 0.0])[1],
        "cli.self_s": tracer.self_s("cli."),
        "cli.stdout_bytes": stdout_bytes,
        "trace.hooks.self_s": self_s("trace.hooks"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
