"""Disk cache for the sigma tables of full continuation triangles.

Only a full, unfrozen triangle's sigma is written: it is deterministic in
(mode, rows), and its rows numbers read back far faster than the sweep
makes them.  Band and frozen triangles, and the entries `triangle` prints
as CSV or as a row, are never cached.

Files live under $BESTSTOP_CACHE (default ~/.cache/beststop), one JSON line
per (mode, rows): the schema tag, mode, rows and sigma(i) for 0 <= i < rows,
the first optimal column 1 .. rows-i of diagonal i, or null where none is.
Writes go through a temporary file and os.replace, and reads and writes hold
an advisory lock on a sidecar file, so concurrent processes never see a torn
file.  A file that fails to parse, carries another schema (earlier ones
included) or holds no such sigma is treated as absent and rebuilt, with a
warning.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from .closedform import ThresholdTable, _check_triangle, sigma_table
from .errors import InvalidInputError

SCHEMA = 4

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


def store_triangle(table: ThresholdTable) -> Path:
    """Cache the threshold table of a full triangle, sigma(i) for every
    0 <= i < its depth; return the file's path."""
    if not isinstance(table, ThresholdTable) or len(table.values) != table.depth:
        raise InvalidInputError("only full triangles' sigma tables are cached")
    path = _triangle_path(table.mode, table.depth)
    line = json.dumps({"schema": SCHEMA, "mode": table.mode, "max_n": table.depth,
                       "sigma": list(table.values.values())}, separators=(",", ":"))
    with _Locked(path):
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(line + "\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def load_triangle(mode: str, max_n: int) -> ThresholdTable | None:
    """Read a cached threshold table, or None when absent or unusable."""
    path = _triangle_path(mode, max_n)
    if not path.exists():
        return None
    with _Locked(path):
        try:
            with open(path) as fh:
                # one line: an earlier schema's diagonals after it stay unread
                head = json.loads(fh.readline())
        except (OSError, ValueError) as e:  # JSONDecodeError and bad UTF-8 included
            warnings.warn(f"discarding unreadable cache file {path}: {e}")
            return None
    if not isinstance(head, dict) or head.get("schema") != SCHEMA \
            or head.get("mode") != mode or head.get("max_n") != max_n:
        warnings.warn(f"discarding cache file {path} with unexpected contents")
        return None
    sigma = head.get("sigma")
    # diagonal i has columns 1 .. max_n - i; a bool is not a column
    if type(sigma) is not list or len(sigma) != max_n or not all(
        v is None or (type(v) is int and 1 <= v <= max_n - i) for i, v in enumerate(sigma)
    ):
        warnings.warn(f"discarding cache file {path}: sigma is not {max_n} entries, "
                      f"each null or a column 1..{max_n}-i of its diagonal i")
        return None
    return ThresholdTable(mode=mode, depth=max_n, values=dict(enumerate(sigma)))


def cached_boundary(mode: str, max_n: int) -> ThresholdTable:
    """The full max_n-row triangle's threshold table, read from the cache or
    swept, one diagonal at a time, and stored.  The arguments and the
    triangle cap are checked before any file is read, so no file answers
    what the sweep would refuse."""
    _check_triangle(mode, max_n)
    found = load_triangle(mode, max_n)
    if found is not None:
        return found
    table = sigma_table(mode, max_n)
    try:
        store_triangle(table)
    except OSError as e:  # cache is an optimization, never a failure
        warnings.warn(f"could not write triangle cache: {e}")
    return table
