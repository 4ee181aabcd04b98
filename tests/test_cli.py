from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import beststop.bijections
import beststop.cli
import beststop.optimizer
import beststop.prefixtree
import oracles
from beststop import pattern_class
from beststop.cli import main
from beststop.errors import DRAW_CAP
from beststop.strategy import member_names, parse_strategy


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


# sha256 of the stdout of `solve --class C --n 8 --mode M` (n = 7 for the
# unrestricted class), recorded before the tree build carried labels and
# before its set listings were printed without re-validation
SOLVE_SHA256 = {
    ("231", "strike"): "eb6f96f98f17afbc7eea125b0e5477588a7f8add879828aa5f0552b24eda851f",
    ("231", "trigger"): "9b3327ac1c69e6b037ff6f701581b2092a6e9976cafcc32d64f9a46ea3f87907",
    ("132", "strike"): "7bc17312186388a750bb98acfbfacb99577a8624d4e9c2d1a57958d05a899611",
    ("132", "trigger"): "1839db21badc521c0ecc441e84f289ba8d45ab7d3515f81e7a6bc7cd1614f5f4",
    ("321", "strike"): "3cbce2c81c6196f0c3f739e50f011fb9bf0e3e6d98136f3661848690c1d50c8e",
    ("321", "trigger"): "929dcdf1928b8b1078ab2c75139e0d1f50b442a1993be0f8ad7881bc7bae03dc",
    ("312", "strike"): "84f77566fda139d18cb4e19853c917207b87bee891a5ca17cc3634fc3ee360ef",
    ("312", "trigger"): "d22ba408996b9ea9b6ce9b6932a9e1ce4e5624363395c69c91207422442587a7",
    ("123", "strike"): "b86df16967b362d359f814993773e9d01a122c08ab60723b29449de5b4299680",
    ("123", "trigger"): "bb8546de2c60c50f5099ffe4d58a888733df3acef32fb4ed39c848cc7c8beb77",
    ("213", "strike"): "1846aac15a27ebdfe928960c396b020e71a507432ea79be56fe51d3e4324213d",
    ("213", "trigger"): "f9423c7a6ef1be262175cac7e4b4cf7a1dfd30df736f459e43fa9a21534c9083",
    ("none", "strike"): "95557011e384a7884004746b3972be921c76945281e7101d48e8b1b51569bbd3",
    ("none", "trigger"): "0a1d25f79b53ee41c3d025ef0300d03def7791684b6ea029d8e1edc8c9c14cac",
}


@pytest.mark.parametrize("name, mode", sorted(SOLVE_SHA256))
def test_solve_output_pinned(capsys, name, mode):
    n = "7" if name == "none" else "8"
    code, out, err = run(capsys, "solve", "--class", name, "--n", n, "--mode", mode)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_SHA256[name, mode]


# sha256 of the stdout of `tree --class C --n 6` (n = 5 for the unrestricted
# class): the whole tree as text and with --json, and `--prefix P` at one
# eligible node with children, which prints its successors; recorded while
# build still counted the wins itself, before it read the label-DAG sweep
TREE_SHA256 = {
    ("123", "text"): "e6cbad5d112669228fb83afbce332c2f712b72629f8ac2288921d1c71e314cbb",
    ("123", "json"): "b168a0be152b99c90fd32557e46f7120f1e2234bc6cf55373acfbec2975c2410",
    ("123", "213"): "211a86c9398d294378b98335787209c91657c33e18470c6c602ec8402cdde483",
    ("132", "text"): "163031d11a845f4de6ce65286711da0b4592926558da762846e2209c2dfd34c8",
    ("132", "json"): "d8be218375fdf95cb48b085d641a0ce7bc8a70b1dad0cf47d57b595e5b6b1361",
    ("132", "213"): "527ad5d58556b0e019f1daf604238e8a7b3db0ab2c470473e47b7ff3928f1560",
    ("213", "text"): "158b7050b996d6a2a1a0ed302fbb130f5f45a59f8819a52cae7d89031195462d",
    ("213", "json"): "8632b0ef4f2047577697ef8eca809fce35c1f5caf17abd2ed70c105f7eb1bfcc",
    ("213", "123"): "893f0e792a2573c1bbf7816cd26cc1386d093e407a2a4e7979c3c37e3dfc11b0",
    ("231", "text"): "6adef83e5a35fbb910d1dc54d8fac238b157bdc5266fc9eb7984974cb96d1c93",
    ("231", "json"): "8bbfb07facc505670d65f3fa02a78df5da302b16328dff9aeb83fbc251e21a4a",
    ("231", "213"): "38413229646d60de1f2ca342b02ae31523bb013f21bce2cddd34ea59061282b2",
    ("312", "text"): "610ab096fb2660a3d350ad1c6d6b3e7238a5c36b697dca2d21d14d77ed36392a",
    ("312", "json"): "fc71ea953e93b176890c9844a2d4330bf442dd174fdf9228ad556e28b26b04bc",
    ("312", "213"): "77f94118ca7993e069d0e51516d8709a3b2ad175c75142005074cc4ed93795e3",
    ("321", "text"): "46f014da1fa16ec3016e331b64a8ce73c7a0becac47114015ffdc8e24db2fb1e",
    ("321", "json"): "a6644e57c4c7508a1edf5c95568ae64bd9311450cd08ad3bee1abec3b1652edb",
    ("321", "213"): "b7b4edf4af37ac573fd2852f6eedd166cffd3403283ae8ee32bea031e3f32200",
    ("none", "text"): "3983361f35f7119cc023d9dadd45221262b18277a6994f6cfa099fd8e1bdadf2",
    ("none", "json"): "2711cd491685d1d90914daf287522705229a97b05ad3d183d5f7f4230efd235c",
    ("none", "213"): "2a1c852583be287ee4853dc4a4f504d8ad8b2281d6342a96c95bb6ae3852ec29",
}


@pytest.mark.parametrize("name, view", sorted(TREE_SHA256))
def test_tree_output_pinned(capsys, name, view):
    argv = ["tree", "--class", name, "--n", "5" if name == "none" else "6"]
    argv += {"text": [], "json": ["--json"]}.get(view, ["--prefix", view])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert view in ("text", "json") or "\nsuccessors: " in out
    assert hashlib.sha256(out.encode()).hexdigest() == TREE_SHA256[name, view]


@pytest.mark.parametrize("name", sorted(beststop.cli.CLASSES))
def test_tree_streams_the_oracle_rendering(capsys, name):
    # the whole tree, as text and as JSON, written off the game's walk is
    # the rendering of the scan-built tree, byte for byte
    for n in range(1, 7):
        tree = oracles.build_by_scan(pattern_class(name), n)
        for flags, as_json in (((), False), (("--json",), True)):
            got = run(capsys, "tree", "--class", name, "--n", str(n), *flags)
            assert got == (0, oracles.render_tree(tree, as_json), ""), (n, flags)


class _Counted:
    """A stdout that keeps only the count of characters written to it."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_tree_json_holds_no_whole_tree():
    # tree --json writes each node as the walk reaches it: the command's
    # traced peak (about 48 kB) stays under a fiftieth of the 8.6 MB
    # document, where the nested dicts and the one string of a materialized
    # tree peaked at 5.5 times the document.  The shared parser is built
    # first, as its one build would count otherwise.
    beststop.cli._build_parser()
    out = _Counted()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            assert main(["tree", "--class", "231", "--n", "10", "--json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size > 8_000_000
    assert peak < out.size / 50, (peak, out.size)


def test_tree_prefixes_print_unchecked(capsys, monkeypatch):
    # every prefix solve and tree print comes from the tree, so printing
    # them never re-validates a permutation; the output is unchanged
    import beststop.permutations

    cmds = [("solve", "--class", "231", "--n", "6"),
            ("solve", "--class", "none", "--n", "5", "--mode", "trigger", "--json"),
            ("tree", "--class", "321", "--n", "4"),
            ("tree", "--class", "321", "--n", "4", "--json"),
            ("tree", "--class", "321", "--n", "4", "--prefix", "null", "--json")]
    want = [run(capsys, *cmd) for cmd in cmds]

    def refuse(*args):
        raise AssertionError("printing re-validated a tree prefix")

    monkeypatch.setattr(beststop.permutations, "validate_permutation", refuse)
    assert [run(capsys, *cmd) for cmd in cmds] == want


def patch_build(monkeypatch, replacement):
    """Put replacement in place of build at every module that looks it up:
    only prefixtree, since no command reads a built tree."""
    monkeypatch.setattr(beststop.prefixtree, "build", replacement)


def refuse_build(*args):
    raise AssertionError("a tree was built")


def test_solve_builds_no_tree(capsys, monkeypatch):
    # solve and verify triangle read the label DAG; a refused rank or size
    # is still refused before any sweep
    patch_build(monkeypatch, refuse_build)
    for name in sorted(beststop.cli.CLASSES):
        for mode in ("strike", "trigger"):
            code, out, err = run(capsys, "solve", "--class", name, "--n", "6", "--mode", mode)
            assert (code, err) == (0, ""), (name, mode)
    assert run(capsys, "verify", "triangle") == (0, "ok   triangle\n", "")
    code, out, err = run(capsys, "solve", "--class", "none", "--n", "10")
    assert (code, out) == (2, "") and "cap" in err


def test_solve_lists_its_set_without_the_walk(capsys, monkeypatch):
    # the optimal set is unfolded by state groups, not walked a prefix at a time
    def refuse(*args, **kwargs):
        raise AssertionError("solve walked the tree")

    monkeypatch.setattr(beststop.optimizer.Game, "walk", refuse)
    code, out, err = run(capsys, "solve", "--class", "231", "--n", "10")
    assert (code, err) == (0, "") and out.startswith("optimal strike set {")


def test_strategy_commands_build_no_tree(capsys, monkeypatch):
    # scoring and simulating a strategy read the label DAG: the benchmark's
    # strategy command lines, at a small rank, build no tree and read no
    # West pairing
    def refuse(*args):
        raise AssertionError("the West pairing was read")

    patch_build(monkeypatch, refuse_build)
    monkeypatch.setattr(beststop.bijections, "west_correspondence", refuse)
    for argv in (
        ["solve", "--class", "321", "--n", "6", "--strategy", "threshold:strike"],
        ["solve", "--class", "312", "--n", "6", "--strategy", "threshold:trigger"],
        ["solve", "--class", "231", "--n", "6", "--strategy", "strike:{1}"],
        ["simulate", "--class", "321", "--n", "6", "--strategy", "threshold:strike",
         "--trials", "500", "--seed", "1"],
        ["simulate", "--class", "312", "--n", "6", "--strategy", "threshold:trigger",
         "--trials", "500", "--seed", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_one_game_serves_a_command(capsys, monkeypatch):
    # each command sweeps the label DAG once per (class, rank) it reads,
    # and hands that one game to both modes and every reader
    sweep, swept = beststop.cli.game, []

    def counted(cls, n):
        swept.append((getattr(cls, "name", cls), n))
        return sweep(cls, n)

    monkeypatch.setattr(beststop.cli, "game", counted)
    for argv, games in (
        (["solve", "--class", "231", "--n", "10", "--strategy", "strike:{1}"], [("231", 10)]),
        (["simulate", "--class", "231", "--n", "10", "--strategy", "strike:{1}",
          "--trials", "100"], [("231", 10)]),
        (["tree", "--class", "321", "--n", "6", "--prefix", "12"], [("321", 6)]),
        (["verify", "triangle"], [("321", n) for n in range(2, 13)]),
        (["verify", "catalan-231"], [("231", n) for n in range(2, 9)]),
        (["verify", "closed-forms"], [(name, n) for name in ("123", "213") for n in range(2, 9)]),
    ):
        swept.clear()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert swept == games, argv


def test_simulate_checks_trials_before_any_game(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the label DAG was swept")

    monkeypatch.setattr(beststop.cli, "game", refuse)
    for strategy in ("strike:{12}", "threshold:strike"):
        cls = "321" if strategy.startswith("threshold") else "none"
        assert run(capsys, "simulate", "--class", cls, "--n", "9", "--strategy", strategy,
                   "--trials", "0") == (1, "", "error: trials must be >= 1, got 0\n")


def test_simulate_caps_draws_before_any_game(capsys, monkeypatch):
    # draws are trials times rank: one trial past the cap is refused with
    # exit 2 before the label DAG is swept, for a set and for a threshold
    def refuse(*args):
        raise AssertionError("the label DAG was swept")

    monkeypatch.setattr(beststop.cli, "game", refuse)
    trials = DRAW_CAP // 9 + 1
    for strategy in ("strike:{12}", "threshold:strike"):
        cls = "321" if strategy.startswith("threshold") else "none"
        assert run(capsys, "simulate", "--class", cls, "--n", "9", "--strategy", strategy,
                   "--trials", str(trials)) == (
            2, "", f"error: {trials} trials at rank 9 draw {trials * 9} prefixes, "
                   f"over the draw cap {DRAW_CAP}\n")


def test_simulate_checks_each_cap_once_before_the_sweep(capsys, monkeypatch):
    # the command line checks the draws, then the tree's caps, once each and
    # before its one sweep, so a strike set past both is refused for its draws
    calls = []

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in ("_check_trials", "_check_caps", "game"):
        monkeypatch.setattr(beststop.cli, name, counted(name, getattr(beststop.cli, name)))
    for strategy in ("strike:{12}", "threshold:strike"):
        calls.clear()
        code, _, err = run(capsys, "simulate", "--class", "321", "--n", "6",
                           "--strategy", strategy, "--trials", "10")
        assert (code, err, calls) == (0, "", ["_check_trials", "_check_caps", "game"]), strategy
    calls.clear()
    trials = DRAW_CAP // 13 + 1
    assert run(capsys, "simulate", "--class", "321", "--n", "13", "--strategy", "strike:{12}",
               "--trials", str(trials)) == (
        2, "", f"error: {trials} trials at rank 13 draw {trials * 13} prefixes, "
               f"over the draw cap {DRAW_CAP}\n")
    assert calls == ["_check_trials"]


def test_verify_builds_no_tree_and_sweeps_one_game_per_check(capsys, monkeypatch):
    # figures-321 and the upsilon round trip walk the games the command
    # line sweeps, and each isomorphism check walks its two games, which
    # the West pairing reads too: no tree, and one sweep per (class, rank)
    # in each check
    swept = {}
    for module in (beststop.cli, beststop.bijections):
        def counted(cls, n, sweep=module.game, site=swept.setdefault(module.__name__, [])):
            site.append((getattr(cls, "name", cls), n))
            return sweep(cls, n)

        monkeypatch.setattr(module, "game", counted)
    patch_build(monkeypatch, refuse_build)
    code, out, err = run(capsys, "verify", "figures-321", "west", "upsilon")
    assert (code, out, err) == (0, "ok   figures-321\nok   west\nok   upsilon\n", "")
    assert swept["beststop.cli"] == [("321", n) for n in range(2, 8)] + [("231", 7)]
    assert sorted(swept["beststop.bijections"]) == sorted(
        (name, n) for name in ("321", "312", "231", "132") for n in range(2, 8))


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


def test_solve_formula_rank_cap(capsys):
    # catalan(n), the closed forms' denominator, prints up to rank 7152;
    # past it the rank is refused with exit 2 before any work
    for name in ("231", "132", "213", "123"):
        for extra in ([], ["--json"]):
            argv = ["solve", "--class", name, "--formula", *extra, "--n"]
            code, out, err = run(capsys, *argv, "7152")
            assert (code, err) == (0, ""), name
            assert "/" in out
            code, out, err = run(capsys, *argv, "7153")
            assert (code, out) == (2, ""), name
            assert "cap" in err, name


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


def test_tree_caps_exit_2(capsys):
    # 10! orders are over the tree's member cap and rank 13 is over its rank
    # cap; solve and the strategy commands keep the tree's caps on the label
    # DAG and refuse before any sweep
    for argv in (
        ["solve", "--class", "none", "--n", "10"],
        ["solve", "--class", "none", "--n", "10", "--strategy", "positional:3"],
        ["simulate", "--class", "none", "--n", "10", "--strategy", "positional:3"],
        ["solve", "--class", "321", "--n", "13", "--strategy", "positional:3"],
        # a 312 threshold strategy reads no tree, but keeps the tree's caps
        ["solve", "--class", "312", "--n", "13", "--strategy", "threshold:trigger"],
        ["simulate", "--class", "312", "--n", "13", "--strategy", "threshold:trigger"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "cap" in err, argv


def test_rank_10_sets_read_back(capsys):
    # rank-10 members are written with commas, so the list splits on ";"
    code, out, _ = run(capsys, "solve", "--class", "321", "--n", "10", "--json")
    assert code == 0
    names = json.loads(out)["members"]
    assert "1,2,3,4,5,6,9,7,8,10" in names
    code, out, _ = run(capsys, "solve", "--class", "321", "--n", "10")
    assert code == 0
    listed = out.splitlines()[0].removeprefix("optimal strike set ")
    assert listed == "{" + ";".join(names) + "}"
    s = parse_strategy("strike:" + listed, "321", 10)
    assert member_names(s.members) == names
    code, out, _ = run(capsys, "solve", "--class", "321", "--n", "10",
                       "--strategy", "strike:" + listed)
    assert code == 0
    assert out.splitlines() == ["strategy strike:" + listed,
                                "value = 8833/16796 (~0.525899023577)"]


def test_triangle_cap_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "triangle", "--rows", "100000")
    assert (code, out) == (2, "")
    assert err == ("error: 100000 rows over 99999 diagonals hold 4999950000 entries, "
                   "over the triangle cap 1000000\n")
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, "triangle", "--rows", "5000", "--max-diag", "20",
                       "--emit", "sigma")
    assert code == 0 and out.startswith("i,sigma\n0,")


def test_triangle_arguments_checked_before_the_sweep(capsys, tmp_path):
    for argv, code, message in (
        (["--rows", "400", "--emit", "row"], 1, "needs --n"),
        (["--rows", "400", "--emit", "row", "--n", "401"], 1, "row 401 out of range 2..400"),
        (["--rows", "400", "--emit", "row", "--n", "1"], 1, "row 1 out of range 2..400"),
        (["--rows", "400", "--emit", "sigma", "--frozen", "1,4"], 1, "unfrozen"),
    ):
        got, out, err = run(capsys, "triangle", *argv)
        assert (got, out) == (code, ""), argv
        assert message in err, argv
    assert list(tmp_path.iterdir()) == []


def test_band_row_refused_before_the_sweep(capsys, monkeypatch):
    # row 30 needs diagonals up to 29
    full = run(capsys, "triangle", "--rows", "30", "--emit", "row", "--n", "30")
    band = run(capsys, "triangle", "--rows", "30", "--max-diag", "29",
               "--emit", "row", "--n", "30")
    assert band == full and full[0] == 0

    def no_sweep(*args, **kwargs):
        raise AssertionError("the band was swept")

    monkeypatch.setattr(beststop.cli, "sweep", no_sweep)
    code, out, err = run(capsys, "triangle", "--rows", "3000", "--max-diag", "3",
                         "--emit", "row", "--n", "2500")
    assert (code, out) == (2, "")
    assert err == "error: row 2500 was not fully computed (band triangle)\n"


def test_closed_stdout_ends_quietly(tmp_path):
    # the CSV of 200 rows is megabytes, far past any pipe buffer, so the
    # writer meets the closed pipe while it is still printing
    src = str(Path(beststop.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "BESTSTOP_CACHE": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from beststop.cli import main; sys.exit(main())",
         "triangle", "--rows", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"N,k,numerator,denominator,optimal\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_limits_refuse_in_a_small_process(tmp_path):
    # each limit the command line can reach (rank, members, triangle
    # entries, closed-form rank, draws) ends with exit 2 and one error line
    # before any work, in a child process held to 256 MiB of address space
    # and 20 s, one child at a time
    import resource

    def small():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = str(Path(beststop.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "BESTSTOP_CACHE": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in ("tree --class 321 --n 13", "solve --class none --n 10",
                 "triangle --rows 100000", "solve --class 321 --n 7153 --formula",
                 "simulate --class 321 --n 10 --strategy threshold:strike --trials 100000000"):
        proc = subprocess.run([sys.executable, "-m", "beststop.cli", *argv.split()], env=env,
                              preexec_fn=small, capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), argv
        assert "Traceback" not in proc.stderr, argv
    assert not (tmp_path / "cache").exists()


def test_largest_triangle_reads_fit_a_small_process(tmp_path):
    # the largest full triangle under the cap, 1,414 rows, read cold for its
    # sigma table in both modes and for the 321 closed form: each keeps one
    # diagonal of the sweep at a time, so each answers in a child process
    # held to 96 MiB of address space, where the whole triangle would need
    # over 200 MiB; the digests are of the outputs of that whole triangle
    import hashlib
    import resource

    def small():
        resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))

    src = str(Path(beststop.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "BESTSTOP_CACHE": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv, digest in (
        ("triangle --rows 1414 --emit sigma --mode strike",
         "28dde7ad10dd7ec3efb308b775c1e2edc227992fb4e4a806b262c79d41f69079"),
        ("triangle --rows 1414 --emit sigma --mode trigger",
         "041ba8dde8666e6a43184ca54b9cf52628301d23cc88899d893891c9b2b732cd"),
        ("solve --class 321 --n 1414 --formula",
         "049df9eb3244607a1ec25dabf406d5de9513411a94e8b82314e2ee11b265f36b"),
    ):
        proc = subprocess.run([sys.executable, "-m", "beststop.cli", *argv.split()], env=env,
                              preexec_fn=small, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()
                  if p.suffix == ".json") == ["triangle-strike-1414.json",
                                              "triangle-trigger-1414.json"]


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,k,numerator,denominator,optimal"
    assert "2,1,1,2,1" in lines
    assert "5,1,23,42,0" in lines
    assert len(lines) == 1 + sum(n - 1 for n in range(2, 6))


@pytest.mark.parametrize("mode", ["strike", "trigger"])
@pytest.mark.parametrize("frozen, max_diag",
                         [((1, 4, 9), None), (None, 6), ((None, 2, 5), 9), (None, None)])
def test_triangle_csv_matches_entry_by_entry(capsys, mode, frozen, max_diag):
    # full, frozen and banded CSVs print every computed entry with its ballot
    # denominator and optimality flag
    from beststop import ballot, continuation_triangle

    t = continuation_triangle(mode, 40, frozen_rules=frozen, max_diag=max_diag)
    want = ["N,k,numerator,denominator,optimal"] + [
        f"{n},{k},{t.entry(n, k)},{ballot(n, k)},{int(t.is_optimal(n, k))}"
        for n in range(2, 41) for k in range(max(1, n - t.diag_limit), n)
    ]
    argv = ["triangle", "--rows", "40", "--mode", mode]
    if frozen:
        argv.append("--frozen=" + ",".join("-" if r is None else str(r) for r in frozen))
    if max_diag:
        argv += ["--max-diag", str(max_diag)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == want
    assert any(line.endswith(",1") for line in want[1:])


def test_triangle_row_and_band(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "16", "--emit", "row", "--n", "16")
    assert code == 0
    assert out.strip().split(",")[0] == "18292738"
    assert out.strip().split(",")[-1] == "1"
    assert run(capsys, "triangle", "--rows", "6", "--emit", "row", "--n", "6") == \
        (0, "71,48,25,9,1\n", "")
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


def test_simulate_completes_strike_sets_like_solve(capsys):
    code, out, _ = run(capsys, "solve", "--class", "321", "--n", "5",
                       "--strategy", "strike:{12}")
    assert code == 0 and "value = 9/42" in out
    completed = out.splitlines()[0].removeprefix("strategy ")
    assert completed != "strike:{12}"
    code, out, err = run(capsys, "simulate", "--class", "321", "--n", "5",
                         "--strategy", "strike:{12}", "--trials", "2000", "--seed", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"strategy {completed} on 321, n=5"


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


def test_tree_refuses_an_empty_prefix(capsys):
    # an empty --prefix names no node: it is refused, not read as "no
    # prefix given", which would print the whole tree
    assert run(capsys, "tree", "--class", "231", "--n", "4", "--prefix", "") == \
        (1, "", "error: empty permutation string\n")


def test_tree_refuses_a_malformed_prefix_before_any_work(capsys, monkeypatch):
    # the prefix is parsed first: no sweep and no tree, even at the
    # largest unrestricted rank under the caps
    def refuse(*args):
        raise AssertionError("the label DAG was swept")

    patch_build(monkeypatch, refuse_build)
    monkeypatch.setattr(beststop.cli, "game", refuse)
    for prefix, err in (("", "error: empty permutation string\n"),
                        ("1x", "error: cannot parse permutation from '1x'\n")):
        assert run(capsys, "tree", "--class", "none", "--n", "9", "--prefix", prefix) == \
            (1, "", err)


def test_tree_prefix_builds_no_tree(capsys, monkeypatch):
    # one node is read off the trigger sweep: its state's counts, its
    # state's moves for the children and the walk from it for successors
    patch_build(monkeypatch, refuse_build)
    want = {
        "null": ("node null: eligible=False strike=0/14 trigger=1/14\n", ["1"]),
        "1234": ("node 1234: eligible=True strike=1/1 trigger=0/1\n", []),
        "21": ("node 21: eligible=False strike=0/5 trigger=3/5\n", ["312", "213"]),
        "12": ("node 12: eligible=True strike=3/9 trigger=5/9\n"
               "successors: 3412, 2413, 2314, 1423, 1324, 123\n", ["231", "132", "123"]),
    }
    for prefix, (text, children) in want.items():
        argv = ["tree", "--class", "321", "--n", "4", "--prefix", prefix]
        assert run(capsys, *argv) == (0, text, ""), prefix
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), prefix
        doc = json.loads(out)
        assert (doc["prefix"], doc["children"]) == (prefix, children)
        assert f"eligible={doc['eligible']} strike={doc['strike']} trigger={doc['trigger']}" \
            in text


def test_verify_all_targets(capsys):
    # the default runs every target; triangle is the one reader of the
    # optimizer's per-node values
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [f"ok   {t}" for t in beststop.cli.VERIFY_TARGETS]
    assert len(out.splitlines()) == 9


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "catalan-231")
    assert code == 0
    assert out.strip() == "ok   catalan-231"
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1 and "unknown verify target" in err


def test_verify_names_each_failing_isomorphism_rank(capsys, monkeypatch):
    def broken(a, b, n):
        return SimpleNamespace(ok=False, first_mismatch=(a, b))

    monkeypatch.setattr(beststop.bijections, "verify_tree_isomorphism", broken)
    code, out, _ = run(capsys, "verify", "west", "upsilon")
    assert code == 3
    assert out.splitlines() == [
        "FAIL west",
        *(f"     west: rank {n} mismatch at ('321', '312')" for n in range(2, 7)),
        "FAIL upsilon",
        *(f"     upsilon: rank {n} mismatch at ('231', '132')" for n in range(2, 7)),
    ]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "")
    assert code == 1
    code, _, err = run(capsys, "solve", "--class", "999", "--n", "4")
    assert code == 1
    code, _, err = run(capsys, "solve", "--n", "4")
    assert code == 1


def test_parser_built_once_and_shared(capsys):
    # every main call parses with one parser, which keeps no state between
    # parses: help and usage errors print the same bytes each time
    assert beststop.cli._build_parser() is beststop.cli._build_parser()
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        seen.append(capsys.readouterr().out)
        seen.append(run(capsys, "solve", "--class", "999", "--n", "4"))
    assert seen[:2] == seen[2:]
    assert "--strategy" in seen[0] and seen[1][0] == 1 and "invalid choice" in seen[1][2]
