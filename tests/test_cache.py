from __future__ import annotations

import json

import pytest

from beststop import InvalidInputError, continuation_triangle, optimal_boundary, sigma_table
from beststop.cache import cache_dir, cached_boundary, load_triangle, store_triangle
from beststop.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("BESTSTOP_CACHE", str(tmp_path))
    return tmp_path


def test_cache_dir_honours_env(isolated_cache):
    assert cache_dir() == isolated_cache


def test_store_and_load_round_trip():
    for mode in ("strike", "trigger"):
        for n in (2, 3, 60):
            t = continuation_triangle(mode, n)
            path = store_triangle(optimal_boundary(t))
            assert path.exists()
            back = load_triangle(mode, n)
            assert back is not None
            assert back.values == optimal_boundary(t).values and len(back.values) == n
            assert (back.mode, back.depth) == (mode, n)


def _head(path):
    """A cache file's one line, parsed."""
    return json.loads(path.read_text())


def _write_head(path, head):
    path.write_text(json.dumps(head) + "\n")


def test_load_missing_returns_none():
    assert load_triangle("strike", 7) is None


def test_cached_boundary_computes_then_hits(isolated_cache):
    want = optimal_boundary(continuation_triangle("trigger", 8)).values
    assert cached_boundary("trigger", 8).values == want
    path = isolated_cache / "triangle-trigger-8.json"
    stamp = path.stat().st_mtime_ns
    assert cached_boundary("trigger", 8).values == want
    assert path.stat().st_mtime_ns == stamp  # read back, not rewritten


def test_corrupt_file_recomputed(isolated_cache):
    store_triangle(sigma_table("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    path.write_text("{not json")
    with pytest.warns(UserWarning, match="unreadable"):
        assert load_triangle("strike", 6) is None
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.warns(UserWarning, match="unreadable"):
        assert load_triangle("strike", 6) is None
    with pytest.warns(UserWarning):
        table = cached_boundary("strike", 6)
    assert table.values == optimal_boundary(continuation_triangle("strike", 6)).values
    # the recompute rewrote the file
    assert load_triangle("strike", 6) is not None


def test_file_is_one_line(isolated_cache):
    store_triangle(sigma_table("strike", 6))
    assert (isolated_cache / "triangle-strike-6.json").read_text() == (
        '{"schema":4,"mode":"strike","max_n":6,"sigma":[1,1,4,null,null,null]}\n'
    )


def test_wrong_schema_discarded(isolated_cache):
    store_triangle(sigma_table("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head = _head(path)
    head["schema"] = 99
    _write_head(path, head)
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert load_triangle("strike", 6) is None


def _write_schema_lines(path, head, t):
    """A file of schema 2 or 3: a head line, then one array per diagonal."""
    path.write_text("".join(json.dumps(v) + "\n" for v in (head, *t.diags)))


def _check_rewritten(path, t):
    """The file is discarded, then rewritten in schema 4 by the next lookup."""
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert load_triangle(t.mode, t.max_n) is None
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert cached_boundary(t.mode, t.max_n).values == optimal_boundary(t).values
    assert path.read_text().count("\n") == 1 and path.read_text().startswith('{"schema":4,')
    assert load_triangle(t.mode, t.max_n).values == optimal_boundary(t).values


def test_schema_1_file_rewritten(isolated_cache):
    # the first format: one JSON document of [n, k, v] triples
    t = continuation_triangle("trigger", 6)
    path = isolated_cache / "triangle-trigger-6.json"
    triples = [[n, k, v] for (n, k), v in t.entries.items()]
    path.write_text(json.dumps({"schema": 1, "mode": "trigger", "max_n": 6, "entries": triples},
                               separators=(",", ":")))
    _check_rewritten(path, t)


def test_schema_2_file_rewritten(isolated_cache):
    # no sigma in the head
    t = continuation_triangle("strike", 6)
    path = isolated_cache / "triangle-strike-6.json"
    _write_schema_lines(path, {"schema": 2, "mode": "strike", "max_n": 6}, t)
    _check_rewritten(path, t)


def test_schema_3_file_rewritten(isolated_cache):
    # the previous format: sigma in the head, the diagonals after it
    t = continuation_triangle("trigger", 6)
    path = isolated_cache / "triangle-trigger-6.json"
    _write_schema_lines(path, {"schema": 3, "mode": "trigger", "max_n": 6, "sigma": t.sigma}, t)
    _check_rewritten(path, t)


@pytest.mark.parametrize("row", [[[1, 1, 1, 1, 5.7], [3, 5, 7, 9]],
                                 [[1, 1, 1, 1, 1, 9], [3, 5, 7]]])
def test_wrong_entry_discarded(isolated_cache, capsys, row):
    # a schema-3 file whose first two diagonals hold a float numerator at
    # (6, 5), or (6, 4) moved to the end of diagonal 1: row output sweeps and
    # leaves the file alone; sigma output discards it and rewrites it
    t = continuation_triangle("strike", 6)
    path = isolated_cache / "triangle-strike-6.json"
    head = {"schema": 3, "mode": "strike", "max_n": 6, "sigma": t.sigma}
    path.write_text("".join(json.dumps(v) + "\n" for v in (head, *row, *t.diags[2:])))
    planted = path.read_text()
    assert main(["triangle", "--rows", "6", "--emit", "row", "--n", "6"]) == 0
    assert capsys.readouterr().out == "71,48,25,9,1\n"
    assert path.read_text() == planted
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert main(["triangle", "--rows", "6", "--emit", "sigma"]) == 0
    capsys.readouterr()
    assert path.read_text().startswith('{"schema":4,')
    assert load_triangle("strike", 6).values == optimal_boundary(t).values


@pytest.mark.parametrize("sigma", [
    [1, 1, 4, None, None],  # one entry short
    [1, 1, 4, None, None, None, None],  # one entry too many
    [1, 1, 4.0, None, None, None],  # a float
    [1, True, 4, None, None, None],  # a bool
    [1, 1, "4", None, None, None],  # a string
    None,  # absent
    [1, 0, 4, None, None, None],  # column 0
    [1, 1, -1, None, None, None],  # a negative column
    [1, 1, 5, None, None, None],  # column rows - i + 1, past diagonal 2's last
], ids=["short", "long", "float", "bool", "string", "absent", "zero", "negative",
        "past-diagonal"])
def test_malformed_sigma_discarded(isolated_cache, sigma):
    store_triangle(sigma_table("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head = _head(path)
    if sigma is None:
        del head["sigma"]
    else:
        head["sigma"] = sigma
    _write_head(path, head)
    with pytest.warns(UserWarning, match="sigma is not 6 entries"):
        assert load_triangle("strike", 6) is None


def test_only_full_triangles_stored():
    # a band's table, and a triangle, which the store took before it took
    # the sigma table
    with pytest.raises(InvalidInputError):
        store_triangle(sigma_table("strike", 9, max_diag=3))
    with pytest.raises(InvalidInputError):
        store_triangle(continuation_triangle("strike", 9))


def test_only_full_sigma_runs_write_a_file(isolated_cache, capsys):
    for argv in (["triangle", "--rows", "200", "--mode", "strike"],
                 ["triangle", "--rows", "6", "--emit", "row", "--n", "6"],
                 ["triangle", "--rows", "60", "--max-diag", "5", "--emit", "sigma"],
                 ["triangle", "--rows", "6", "--frozen", "1,4,9"]):
        assert main(argv) == 0, argv
        assert list(isolated_cache.iterdir()) == [], argv
    assert main(["triangle", "--rows", "6", "--emit", "sigma"]) == 0
    assert sorted(p.name for p in isolated_cache.iterdir()) == [
        "triangle-strike-6.json", "triangle-strike-6.json.lock"]


@pytest.mark.parametrize("rows, code", [(100000, 2), (1, 1)], ids=["over-cap", "one-row"])
def test_arguments_checked_before_the_file_is_read(isolated_cache, capsys, rows, code):
    # a well-formed file the load would accept: the run still refuses, as it
    # does with no file
    sigma = [None] * rows
    path = isolated_cache / f"triangle-strike-{rows}.json"
    _write_head(path, {"schema": 4, "mode": "strike", "max_n": rows, "sigma": sigma})
    assert load_triangle("strike", rows).values == dict(enumerate(sigma))
    assert main(["triangle", "--rows", str(rows), "--emit", "sigma"]) == code
    assert capsys.readouterr().out == ""
