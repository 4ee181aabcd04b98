"""Disk cache for computed continuation triangles.

Only full, unfrozen triangles are cached: they are the expensive shared
artifact and they are deterministic in (mode, depth).  A lookup opens only
the file for its exact (mode, depth).  Frozen-boundary and band triangles
are cheap one-offs and are never written.

Files live under $BESTSTOP_CACHE (default ~/.cache/beststop), one per
(mode, depth).  A file is a JSON head line with the schema tag, mode,
depth and the sigma the sweep recorded (depth entries, null where a
diagonal has no optimal stop), then one JSON array per diagonal i = 1 ..
depth-1 holding that diagonal's depth-i entries, the lists exactly as the
triangle holds them; it is written and read one line at a time.  Writes
go through a temporary file and os.replace, and both reads and writes
hold an advisory lock on a sidecar file, so concurrent processes see
either the old or the new file, never a torn one.  A file that fails to parse, carries an unknown schema
(files of earlier schemas included) or does not hold exactly the
triangle's sigma and integer diagonals is treated as absent and rebuilt,
with a warning.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from types import NoneType

from .closedform import ContinuationTriangle, continuation_triangle
from .errors import InvalidInputError

SCHEMA = 3

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
    head = json.dumps({"schema": SCHEMA, "mode": t.mode, "max_n": t.max_n, "sigma": t.sigma},
                      separators=compact)
    with _Locked(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # json.dumps runs the C encoder, which json.dump never does;
                # one call per diagonal keeps each string it builds small
                fh.write(head + "\n")
                for diag in t.diags:
                    fh.write(json.dumps(diag, separators=compact) + "\n")
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
            with open(path) as fh:
                head = json.loads(fh.readline())
                if (
                    not isinstance(head, dict)
                    or head.get("schema") != SCHEMA
                    or head.get("mode") != mode
                    or head.get("max_n") != max_n
                ):
                    warnings.warn(f"discarding cache file {path} with unexpected contents")
                    return None
                sigma = head.get("sigma")
                if type(sigma) is not list or len(sigma) != max_n \
                        or not set(map(type, sigma)) <= {int, NoneType}:
                    warnings.warn(
                        f"discarding cache file {path}: sigma is not {max_n} ints or nulls")
                    return None
                diags = [json.loads(line) for line in fh]
        except (OSError, ValueError) as e:  # JSONDecodeError and bad UTF-8 included
            warnings.warn(f"discarding unreadable cache file {path}: {e}")
            return None
    # diagonal i holds max_n - i plain ints (int() would truncate a float)
    if len(diags) != max_n - 1 or not all(
        type(diag) is list and len(diag) == max_n - i and set(map(type, diag)) == {int}
        for i, diag in enumerate(diags, 1)
    ):
        warnings.warn(f"discarding cache file {path}: entries are not the expected rows 2..{max_n}")
        return None
    return ContinuationTriangle(
        mode=mode, max_n=max_n, max_diag=None, frozen_rules=None, diags=diags, sigma=sigma
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
