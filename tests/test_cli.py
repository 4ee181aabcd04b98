from __future__ import annotations

import json

import pytest

from beststop.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("BESTSTOP_CACHE", str(tmp_path))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_tree(capsys):
    code, out, _ = run(capsys, "solve", "--class", "none", "--n", "4")
    assert code == 0
    assert "optimal strike set {12,213,3124,3214,4123,4132,4213,4231,4312,4321}" in out
    assert "value = 11/24" in out
    assert "~0.458333" in out


def test_solve_trigger_json(capsys):
    code, out, _ = run(capsys, "solve", "--class", "none", "--n", "4",
                       "--mode", "trigger", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == ["1"]
    assert doc["value"] == "11/24"


def test_solve_formula(capsys):
    code, out, _ = run(capsys, "solve", "--class", "321", "--n", "5", "--formula")
    assert code == 0
    assert "threshold:strike" in out and "23/42" in out
    code, out, _ = run(capsys, "solve", "--class", "231", "--n", "8", "--formula")
    assert code == 0
    assert "strike:{1}" in out and "429/1430" in out
    code, out, _ = run(capsys, "solve", "--class", "123", "--n", "4", "--formula")
    assert code == 0
    assert "9/14" in out
    for name in ("132", "213"):
        code, out, _ = run(capsys, "solve", "--class", name, "--n", "6", "--formula")
        assert code == 0
        assert out == "optimal strategy strike:{1}\nvalue = 42/132 (~0.3181818181818)\n"
        code, out, _ = run(capsys, "solve", "--class", name, "--n", "1", "--formula")
        assert code == 0
        assert out == "optimal strategy strike:{1}\nvalue = 1/1 (~1)\n"


def test_solve_given_strategy_completes_strike_sets(capsys):
    code, out, _ = run(capsys, "solve", "--class", "none", "--n", "4",
                       "--strategy", "strike:{12,213,3124,3214}")
    assert code == 0
    assert "value = 11/24" in out
    code, out, _ = run(capsys, "solve", "--class", "231", "--n", "6",
                       "--strategy", "positional:0")
    assert code == 0
    assert "value = 42/132" in out


def test_solve_errors(capsys):
    code, _, err = run(capsys, "solve", "--class", "none", "--n", "0")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "solve", "--class", "none", "--n", "4", "--formula")
    assert code == 1
    code, _, err = run(capsys, "solve", "--class", "231", "--n", "4",
                       "--strategy", "strike:{231}")
    assert code == 1
    code, _, err = run(capsys, "solve", "--class", "none", "--n", "15")
    assert code == 2  # past the exhaustive-tree rank limit


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,k,numerator,denominator,optimal"
    assert "2,1,1,2,1" in lines
    assert "5,1,23,42,0" in lines
    assert len(lines) == 1 + sum(n - 1 for n in range(2, 6))


def test_triangle_row_and_band(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "16", "--emit", "row", "--n", "16")
    assert code == 0
    assert out.strip().split(",")[0] == "18292738"
    assert out.strip().split(",")[-1] == "1"
    code, out, _ = run(capsys, "triangle", "--rows", "30", "--max-diag", "3",
                       "--emit", "row", "--n", "30")
    assert code == 2  # full rows are unavailable in band mode
    code, _, err = run(capsys, "triangle", "--rows", "5", "--emit", "row")
    assert code == 1 and "needs --n" in err


def test_triangle_sigma(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "60", "--emit", "sigma")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,sigma"
    table = dict(line.split(",") for line in lines[1:])
    assert table["1"] == "1"
    assert table["7"] == "49"
    assert table["8"] == ""  # unresolved at this depth
    code, out, _ = run(capsys, "triangle", "--rows", "60", "--emit", "sigma",
                       "--mode", "trigger")
    assert code == 0
    table = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert table["0"] == "" and table["4"] == "8"


def test_triangle_frozen(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "6", "--frozen", "1,4,9",
                       "--emit", "row", "--n", "6")
    assert code == 0
    code, _, err = run(capsys, "triangle", "--rows", "6", "--frozen", "1,x")
    assert code == 1
    code, _, err = run(capsys, "triangle", "--rows", "6", "--frozen", "1,4",
                       "--emit", "sigma")
    assert code == 1 and "unfrozen" in err


def test_simulate(capsys):
    code, out, _ = run(capsys, "simulate", "--class", "321", "--n", "5",
                       "--strategy", "threshold:strike", "--trials", "4000",
                       "--seed", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 4000
    exact = 23 / 42
    se = doc["std_error"]
    assert abs(doc["estimate"] - exact) < 4 * se


def test_tree_display(capsys):
    code, out, _ = run(capsys, "tree", "--class", "321", "--n", "4")
    assert code == 0
    assert "123 * strike=3/4" in out
    code, out, _ = run(capsys, "tree", "--class", "321", "--n", "4",
                       "--prefix", "12")
    assert code == 0
    assert "eligible=True strike=3/9" in out
    assert "successors:" in out
    code, out, _ = run(capsys, "tree", "--class", "231", "--n", "4",
                       "--prefix", "null", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["prefix"] == "null" and doc["trigger"] == "5/14"
    code, out, _ = run(capsys, "tree", "--class", "231", "--n", "3", "--json")
    assert code == 0
    json.loads(out)
    code, _, err = run(capsys, "tree", "--class", "231", "--n", "4",
                       "--prefix", "231")
    assert code == 1


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "catalan-231")
    assert code == 0
    assert out.strip() == "ok   catalan-231"
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1 and "unknown verify target" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "")
    assert code == 1
    code, _, err = run(capsys, "solve", "--class", "999", "--n", "4")
    assert code == 1
    code, _, err = run(capsys, "solve", "--n", "4")
    assert code == 1
