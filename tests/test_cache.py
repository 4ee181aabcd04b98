from __future__ import annotations

import json

import pytest

from beststop import InvalidInputError, continuation_triangle
from beststop.cache import cache_dir, cached_triangle, load_triangle, store_triangle


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("BESTSTOP_CACHE", str(tmp_path))
    return tmp_path


def test_cache_dir_honours_env(isolated_cache):
    assert cache_dir() == isolated_cache


def test_store_and_load_round_trip():
    t = continuation_triangle("strike", 9)
    path = store_triangle(t)
    assert path.exists()
    back = load_triangle("strike", 9)
    assert back is not None
    assert back.entries == t.entries
    assert (back.mode, back.max_n) == ("strike", 9)
    assert back.frozen_rules is None and back.max_diag is None


def test_load_missing_returns_none():
    assert load_triangle("strike", 7) is None


def test_cached_triangle_computes_then_hits(isolated_cache):
    t1 = cached_triangle("trigger", 8)
    assert (isolated_cache / "triangle-trigger-8.json").exists()
    t2 = cached_triangle("trigger", 8)
    assert t2.entries == t1.entries
    assert t1.entries == continuation_triangle("trigger", 8).entries


def test_corrupt_file_recomputed(isolated_cache):
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    path.write_text("{not json")
    with pytest.warns(UserWarning, match="unreadable"):
        assert load_triangle("strike", 6) is None
    with pytest.warns(UserWarning):
        t = cached_triangle("strike", 6)
    assert t.entries == continuation_triangle("strike", 6).entries
    # the recompute rewrote the file
    assert load_triangle("strike", 6) is not None


def test_wrong_schema_discarded(isolated_cache):
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    doc = json.loads(path.read_text())
    doc["schema"] = 99
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert load_triangle("strike", 6) is None


def test_truncated_entries_discarded(isolated_cache):
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    doc = json.loads(path.read_text())
    doc["entries"] = doc["entries"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="expected"):
        assert load_triangle("strike", 6) is None


@pytest.mark.parametrize("row", [[9, 5, 1], [6, 5, 5.7]])
def test_wrong_entry_discarded(isolated_cache, capsys, row):
    # a key outside the triangle in place of (6, 5), or a float numerator:
    # the entry count is right, but the file is rebuilt all the same
    from beststop.cli import main

    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    doc = json.loads(path.read_text())
    doc["entries"] = [row if e[:2] == [6, 5] else e for e in doc["entries"]]
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="expected rows 2..6"):
        assert main(["triangle", "--rows", "6", "--emit", "row", "--n", "6"]) == 0
    assert capsys.readouterr().out == "71,48,25,9,1\n"
    assert load_triangle("strike", 6).entries == continuation_triangle("strike", 6).entries


def test_only_full_triangles_stored():
    with pytest.raises(InvalidInputError):
        store_triangle(continuation_triangle("strike", 9, max_diag=3))
    with pytest.raises(InvalidInputError):
        store_triangle(continuation_triangle("strike", 9, frozen_rules=(1, 4, 9)))
