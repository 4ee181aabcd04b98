"""Disk cache for computed continuation triangles.

Only full, unfrozen triangles are cached: they are the expensive shared
artifact and they are deterministic in (mode, depth).  A lookup opens only
the file for its exact (mode, depth).  Frozen-boundary and band triangles
are cheap one-offs and are never written.

Files live under $BESTSTOP_CACHE (default ~/.cache/beststop) as one JSON
document per (mode, depth) with a schema tag.  Writes go through a
temporary file and os.replace, and both reads and writes hold an advisory
lock on a sidecar file, so concurrent processes see either the old or the
new document, never a torn one.  A file that fails to parse, carries an
unknown schema or does not hold exactly the triangle's integer entries is
treated as absent and rebuilt, with a warning.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from itertools import chain
from pathlib import Path

from .closedform import ContinuationTriangle, continuation_triangle
from .errors import InvalidInputError

SCHEMA = 1

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback, locks become no-ops
    fcntl = None


def cache_dir() -> Path:
    env = os.environ.get("BESTSTOP_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "beststop"


def _triangle_path(mode: str, max_n: int) -> Path:
    return cache_dir() / f"triangle-{mode}-{max_n}.json"


class _Locked:
    """Advisory lock on a sidecar file for the duration of a with-block."""

    def __init__(self, target: Path):
        self.path = target.with_suffix(target.suffix + ".lock")
        self.handle = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.handle = open(self.path, "a+")
        if fcntl is not None:
            fcntl.flock(self.handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        if self.handle is not None:
            if fcntl is not None:
                fcntl.flock(self.handle.fileno(), fcntl.LOCK_UN)
            self.handle.close()
        return False


def store_triangle(t: ContinuationTriangle) -> Path:
    """Write a full unfrozen triangle to the cache and return its path."""
    if t.frozen_rules is not None or t.max_diag is not None:
        raise InvalidInputError("only full, unfrozen triangles are cached")
    path = _triangle_path(t.mode, t.max_n)
    compact = (",", ":")
    head = json.dumps({"schema": SCHEMA, "mode": t.mode, "max_n": t.max_n}, separators=compact)
    with _Locked(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # json.dumps runs the C encoder, which json.dump never does;
                # one call per row keeps each string it builds small
                fh.write(head[:-1] + ',"entries":[')
                for n in range(2, t.max_n + 1):
                    row = [[n, k, t.entries[n, k]] for k in range(1, n)]
                    fh.write(("," if n > 2 else "") + json.dumps(row, separators=compact)[1:-1])
                fh.write("]}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def load_triangle(mode: str, max_n: int) -> ContinuationTriangle | None:
    """Read a cached triangle, or None when absent or unusable."""
    path = _triangle_path(mode, max_n)
    if not path.exists():
        return None
    with _Locked(path):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            warnings.warn(f"discarding unreadable cache file {path}: {e}")
            return None
    if (
        not isinstance(doc, dict)
        or doc.get("schema") != SCHEMA
        or doc.get("mode") != mode
        or doc.get("max_n") != max_n
        or not isinstance(doc.get("entries"), list)
    ):
        warnings.warn(f"discarding cache file {path} with unexpected contents")
        return None
    try:
        entries = {(n, k): v for n, k, v in doc["entries"]}
    except (TypeError, ValueError) as e:
        warnings.warn(f"discarding malformed cache file {path}: {e}")
        return None
    # plain ints only (int() would truncate a float), and with the count
    # right, keys inside the triangle are exactly the triangle's keys
    if (
        set(map(type, chain.from_iterable(doc["entries"]))) != {int}
        or len(entries) != max_n * (max_n - 1) // 2
        or not all(2 <= n <= max_n and 1 <= k < n for n, k in entries)
    ):
        warnings.warn(f"discarding cache file {path}: entries are not the expected rows 2..{max_n}")
        return None
    return ContinuationTriangle(
        mode=mode, max_n=max_n, max_diag=None, frozen_rules=None, entries=entries
    )


def cached_triangle(mode: str, max_n: int) -> ContinuationTriangle:
    """Load the triangle from disk or compute and store it."""
    found = load_triangle(mode, max_n)
    if found is not None:
        return found
    t = continuation_triangle(mode, max_n)
    try:
        store_triangle(t)
    except OSError as e:  # cache is an optimization, never a failure
        warnings.warn(f"could not write triangle cache: {e}")
    return t
