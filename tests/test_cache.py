from __future__ import annotations

import json

import pytest

from beststop import InvalidInputError, continuation_triangle, optimal_boundary
from beststop.cache import cache_dir, cached_triangle, load_triangle, store_triangle


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
            path = store_triangle(t)
            assert path.exists()
            back = load_triangle(mode, n)
            assert back is not None
            assert back.diags == t.diags
            assert back.entries == t.entries
            assert back.sigma == t.sigma and len(t.sigma) == n
            assert optimal_boundary(back).values == optimal_boundary(t).values
            assert (back.mode, back.max_n) == (mode, n)
            assert back.frozen_rules is None and back.max_diag is None


def _lines(path):
    """The head and the diagonal lines of a cache file, parsed."""
    head, *diags = map(json.loads, path.read_text().splitlines())
    return head, diags


def _write_lines(path, head, diags):
    path.write_text("".join(json.dumps(v) + "\n" for v in (head, *diags)))


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
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.warns(UserWarning, match="unreadable"):
        assert load_triangle("strike", 6) is None
    with pytest.warns(UserWarning):
        t = cached_triangle("strike", 6)
    assert t.entries == continuation_triangle("strike", 6).entries
    # the recompute rewrote the file
    assert load_triangle("strike", 6) is not None


def test_file_is_a_head_line_then_one_line_per_diagonal(isolated_cache):
    store_triangle(continuation_triangle("strike", 6))
    assert (isolated_cache / "triangle-strike-6.json").read_text() == (
        '{"schema":3,"mode":"strike","max_n":6,"sigma":[1,1,4,null,null,null]}\n'
        "[1,1,1,1,1]\n[3,5,7,9]\n[8,15,25]\n[23,48]\n[71]\n"
    )


def test_wrong_schema_discarded(isolated_cache):
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head, diags = _lines(path)
    head["schema"] = 99
    _write_lines(path, head, diags)
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert load_triangle("strike", 6) is None


def test_truncated_entries_discarded(isolated_cache):
    # the last diagonal's line is missing
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head, diags = _lines(path)
    _write_lines(path, head, diags[:-1])
    with pytest.warns(UserWarning, match="expected"):
        assert load_triangle("strike", 6) is None


@pytest.mark.parametrize("row", [[[1, 1, 1, 1, 5.7], [3, 5, 7, 9]],
                                 [[1, 1, 1, 1, 1, 9], [3, 5, 7]]])
def test_wrong_entry_discarded(isolated_cache, capsys, row):
    # the first two diagonals with a float numerator at (6, 5), or with
    # (6, 4) moved to the end of diagonal 1, one entry long: the entry count
    # is right, but the file is rebuilt all the same
    from beststop.cli import main

    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head, diags = _lines(path)
    _write_lines(path, head, row + diags[2:])
    with pytest.warns(UserWarning, match="expected rows 2..6"):
        assert main(["triangle", "--rows", "6", "--emit", "row", "--n", "6"]) == 0
    assert capsys.readouterr().out == "71,48,25,9,1\n"
    assert load_triangle("strike", 6).entries == continuation_triangle("strike", 6).entries


@pytest.mark.parametrize("edit", [
    lambda diags: diags[:2] + [diags[2][:-1]] + diags[3:],  # a short diagonal
    lambda diags: diags + [[0]],  # one diagonal too many
    lambda diags: diags[:1] + [{"k": 3}] + diags[2:],  # not a list
], ids=["wrong-length", "extra-diagonal", "non-list"])
def test_malformed_diagonals_discarded(isolated_cache, edit):
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head, diags = _lines(path)
    _write_lines(path, head, edit(diags))
    with pytest.warns(UserWarning, match="expected rows 2..6"):
        assert load_triangle("strike", 6) is None


def test_schema_1_file_rewritten(isolated_cache):
    # the earlier format: one JSON document of [n, k, v] triples
    t = continuation_triangle("trigger", 6)
    path = isolated_cache / "triangle-trigger-6.json"
    triples = [[n, k, v] for (n, k), v in t.entries.items()]
    path.write_text(json.dumps({"schema": 1, "mode": "trigger", "max_n": 6, "entries": triples},
                               separators=(",", ":")))
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert load_triangle("trigger", 6) is None
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert cached_triangle("trigger", 6).entries == t.entries
    assert path.read_text().startswith('{"schema":3,')
    assert load_triangle("trigger", 6).diags == t.diags


def test_schema_2_file_rewritten(isolated_cache):
    # the previous format: the same lines, with no sigma in the head
    t = continuation_triangle("strike", 6)
    store_triangle(t)
    path = isolated_cache / "triangle-strike-6.json"
    _, diags = _lines(path)
    _write_lines(path, {"schema": 2, "mode": "strike", "max_n": 6}, diags)
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert load_triangle("strike", 6) is None
    with pytest.warns(UserWarning, match="unexpected contents"):
        assert optimal_boundary(cached_triangle("strike", 6)).values == optimal_boundary(t).values
    assert path.read_text().startswith('{"schema":3,')
    assert load_triangle("strike", 6).sigma == t.sigma


@pytest.mark.parametrize("sigma", [
    [1, 1, 4, None, None],  # one entry short
    [1, 1, 4, None, None, None, None],  # one entry too many
    [1, 1, 4.0, None, None, None],  # a float
    [1, True, 4, None, None, None],  # a bool
    [1, 1, "4", None, None, None],  # a string
    None,  # absent
], ids=["short", "long", "float", "bool", "string", "absent"])
def test_malformed_sigma_discarded(isolated_cache, sigma):
    store_triangle(continuation_triangle("strike", 6))
    path = isolated_cache / "triangle-strike-6.json"
    head, diags = _lines(path)
    if sigma is None:
        del head["sigma"]
    else:
        head["sigma"] = sigma
    _write_lines(path, head, diags)
    with pytest.warns(UserWarning, match="sigma is not 6 ints or nulls"):
        assert load_triangle("strike", 6) is None


def test_only_full_triangles_stored():
    with pytest.raises(InvalidInputError):
        store_triangle(continuation_triangle("strike", 9, max_diag=3))
    with pytest.raises(InvalidInputError):
        store_triangle(continuation_triangle("strike", 9, frozen_rules=(1, 4, 9)))
