"""Span tracing of the beststop layers, installed from outside the package.

``install(tracer)`` replaces each layer's public functions with timing
wrappers in every module that looks them up (``prefixtree`` calls
``permutations.child_indices`` through its own global, so that global is
the one replaced).  Each call becomes a span with a name, start, end and
parent.  A span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the duration of the
outermost (``cli.*``) spans.

Spans are kept in memory, up to a cap, and written out once the pass ends;
per-name call counts and times are kept for every call.  Hooks that derive
counts from a call's result (tree nodes, triangle entries) are timed as
``trace.hooks`` so that their cost is not charged to any layer.
"""
from __future__ import annotations

import importlib
import json
import resource
import time
from collections import defaultdict

SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [span id, seconds covered by children]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id), the first SPAN_CAP
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = defaultdict(int)
        self.dropped = 0
        self._ids = 0

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(result) runs outside it."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hooks = self.stats.setdefault("trace.hooks", [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            self._ids += 1
            frame = [self._ids, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], name, start, end, parent))
                else:
                    self.dropped += 1
            if after is not None:
                h0 = clock()
                after(result)
                h = clock() - h0
                hooks[0] += 1
                hooks[1] += h
                hooks[2] += h
                if stack:
                    stack[-1][1] += h
            return result

        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """A generator function whose every next() is a span; count tallies
        the items it yields."""

        def traced(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                self.counts[count] += 1
                yield item

        return traced

    def self_s(self, prefix: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(s[0] for name, s in self.stats.items() if name.startswith(prefix))

    def write(self, path) -> None:
        """Spans as JSON lines [id, name, start, end, parent]; parent 0 is none."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; return the names that could not be found."""
    mod = {m: importlib.import_module(f"beststop.{m}") for m in (
        "bijections", "cache", "cli", "closedform", "optimizer", "permutations",
        "prefixtree", "rng", "strategy", "tallies")}
    counts = tracer.counts

    def built(tree):
        counts["prefixtree.nodes"] += len(tree.index)

    def optimized(res):
        counts["optimizer.nodes"] += len(res.per_node_values)

    def swept(t):
        counts["closedform.entries"] += len(t.entries)
        bits = max((v.bit_length() for v in t.entries.values()), default=0)
        counts["closedform.max_entry_bits"] = max(counts["closedform.max_entry_bits"], bits)

    def loaded(t):
        counts["cache.misses" if t is None else "cache.hits"] += 1

    def stored(path):
        counts["cache.bytes_written"] += path.stat().st_size

    def paired(mapping):
        counts["bijections.west_pairs"] += len(mapping)

    # (defining module, function, modules that look it up, hook); the span is
    # named module.function
    table = [
        ("permutations", "child_indices", ("permutations", "prefixtree", "bijections"), None),
        ("prefixtree", "build", ("prefixtree", "bijections"), built),
        ("optimizer", "optimal_strike_set", ("cli",), optimized),
        ("optimizer", "optimal_trigger_set", ("cli",), optimized),
        ("closedform", "continuation_triangle", ("cli", "cache", "strategy"), swept),
        ("closedform", "optimal_boundary", ("cli", "strategy"), None),
        ("closedform", "fit_shifted_ballot", ("cli",), None),
        ("tallies", "ballot", ("tallies", "closedform", "cli"), None),
        ("tallies", "shifted_ballot", ("closedform",), None),
        ("tallies", "cmp_as_rational", ("optimizer", "cli"), None),
        ("cache", "load_triangle", ("cache",), loaded),
        ("cache", "store_triangle", ("cache",), stored),
        ("strategy", "play", ("strategy",), None),
        ("strategy", "sample_uniform", ("strategy",), None),
        ("strategy", "exact_success", ("cli",), None),
        ("bijections", "west_correspondence", ("bijections",), paired),
        ("bijections", "verify_tree_isomorphism", ("bijections",), None),
    ]
    missing = []
    for home, attr, sites, hook in table:
        name = f"{home}.{attr}"
        fn = getattr(mod[home], attr, None)
        if fn is None:
            missing.append(name)
            continue
        measured = _with_rss_growth(fn, counts) if name == "prefixtree.build" else fn
        traced = tracer.wrap(name, measured, hook)
        for site in sites:
            if getattr(mod[site], attr, None) is fn:
                setattr(mod[site], attr, traced)

    enum = getattr(mod["permutations"], "enumerate_class", None)
    if enum is None:
        missing.append("permutations.enumerate_class")
    else:
        traced = tracer.wrap_generator("permutations.enumerate_class", enum,
                                       "permutations.enumerate_class.members")
        for site in ("strategy", "cli"):
            if getattr(mod[site], "enumerate_class", None) is enum:
                setattr(mod[site], "enumerate_class", traced)

    rng = getattr(mod["rng"], "SplitMix64", None)
    for attr in ("below", "next64"):
        fn = getattr(rng, attr, None)
        if fn is None:
            missing.append(f"rng.{attr}")
        else:
            setattr(rng, attr, tracer.wrap(f"rng.{attr}", fn))
    return missing


def _with_rss_growth(build, counts):
    """build, adding how far each call raised the process's peak RSS.

    tracemalloc would give the build's own peak, but it made the rank-10
    231 build six times slower, which would swamp the layer's self time."""

    def measured(*args, **kwargs):
        before = _maxrss_mib()
        tree = build(*args, **kwargs)
        counts["prefixtree.build.peak_mb"] += _maxrss_mib() - before
        return tree

    return measured
