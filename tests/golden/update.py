"""Rewrite cli.tsv, the byte-identity corpus of the beststop command line.

Each line of cli.tsv is one command, tab-separated: the argv as a shell
would spell it (shlex.join), the exit code, and the sha256 of its stdout
and of its stderr.  tests/test_golden.py replays every line through
cli.main, in file order, with a private BESTSTOP_CACHE, and names each
command whose exit code or output differs.  A change that alters a line
on purpose reruns this script and says which commands changed and why:

    PYTHONPATH=src python tests/golden/update.py
"""
from __future__ import annotations

import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.tsv"
WORKFLOW = HERE.parents[1] / ".github" / "workflows" / "tests.yml"

CLASSES = ("none", "231", "132", "321", "312", "123", "213")
# valid, refused and completed descriptors: threshold is refused off 321
# and 312, 12 is longer than rank 1, and strike:{12} is completed
DESCRIPTORS = (
    "strike:{1}",
    "strike:{12}",
    "strike:{12,21}",
    "trigger:{null}",
    "trigger:{null,1,21}",
    "trigger:{size=2}",
    "positional:1",
    "threshold:strike",
    "threshold:trigger",
)
# bad input exits 1 and a limit exits 2, before any work
REFUSALS = (
    "solve --class none --n 0",
    "solve --class none --n 15",
    "solve --class none --n 4 --formula",
    "solve --class 321 --n 5 --strategy 'strike:{1,12}'",
    "solve --class 321 --n 5 --strategy 'strike:{null}'",
    "solve --class 321 --n 5 --strategy 'trigger:{size=9}'",
    "solve --class 321 --n 5 --strategy positional:x",
    "solve --class 321 --n 5 --strategy bogus",
    "solve --class 321 --n 5 --strategy 'strike:{4}'",
    "solve --class 321 --n 13 --strategy threshold:strike",
    "simulate --class 321 --n 5 --strategy positional:1 --trials 0",
    "simulate --class none --n 11 --strategy 'strike:{1}' --trials 10",
    "tree --class 321 --n 13",
    "tree --class 321 --n 4 --prefix 4",
    "triangle --rows 100000",
    "triangle --rows 5 --emit row",
    "triangle --rows 10 --emit sigma --frozen 1,2",
    "verify nosuch",
    "",
)
# the classes and ranks of perfbench's tree-solve workload
TREE_SOLVE = (("231", 10), ("132", 9), ("123", 9), ("213", 9), ("321", 10), ("312", 10),
              ("none", 8))


def workflow_commands() -> list[list[str]]:
    """The argv of every beststop command in the workflow, each loop over
    $mode spelled out for strike and trigger."""
    found = []
    for line in WORKFLOW.read_text().splitlines():
        if line.lstrip().startswith("#"):
            continue
        for m in re.finditer(r"\bbeststop ([^|;>&]*)", line):
            text = m.group(1)
            modes = ("strike", "trigger") if "$mode" in text else (None,)
            found += [shlex.split(text.replace('"$mode"', mode or "")) for mode in modes]
    return found


def commands() -> list[list[str]]:
    """The corpus's commands, in the order they are replayed."""
    argvs = [shlex.split(line) for line in REFUSALS]
    for cls in CLASSES:
        for n in range(1, 9):
            head = ["--class", cls, "--n", str(n)]
            if n < 8:
                # test_cli's SOLVE_SHA256 pins the listings at rank 8
                argvs += [["solve", *head, "--mode", "strike"],
                          ["solve", *head, "--mode", "trigger", "--json"],
                          ["tree", *head, "--prefix", "1"]]
            for i, d in enumerate(DESCRIPTORS):
                argvs.append(["solve", *head, "--strategy", d])
                argvs.append(["simulate", *head, "--strategy", d,
                              "--trials", "200", "--seed", str(n * 10 + i)])
    for mode in ("strike", "trigger"):
        argvs += [["triangle", "--rows", "12", "--mode", mode],
                  ["triangle", "--rows", "40", "--emit", "sigma", "--mode", mode],
                  ["triangle", "--rows", "30", "--emit", "row", "--n", "17", "--mode", mode],
                  ["triangle", "--rows", "30", "--max-diag", "4", "--mode", mode],
                  ["triangle", "--rows", "20", "--frozen", "1,-,3", "--mode", mode],
                  ["triangle", "--rows", "300", "--emit", "row", "--n", "300", "--mode", mode],
                  ["triangle", "--rows", "600", "--max-diag", "25", "--emit", "sigma",
                   "--mode", mode]]
    # the 321 and 312 closed forms read entry (n, 1) off the triangle's last diagonal
    argvs += [["solve", "--class", cls, "--n", "300", "--formula"] for cls in ("321", "312")]
    argvs.append(["simulate", "--class", "321", "--n", "9", "--strategy", "threshold:strike",
                  "--json", "--seed", "4", "--trials", "500"])
    # the optimal-set listings past rank 7: the benchmark's tree-solve
    # listings (ranks 8-10, both modes), one rank-10 listing as JSON, and a
    # rank-12 one whose names hold 10, 11 and 12 (the workflow adds a
    # rank-11 one)
    for cls, n in TREE_SOLVE:
        argvs += [["solve", "--class", cls, "--n", str(n), "--mode", mode]
                  for mode in ("strike", "trigger")]
    argvs += [["solve", "--class", "321", "--n", "10", "--mode", "strike", "--json"],
              ["solve", "--class", "123", "--n", "12", "--mode", "strike"]]
    return argvs + workflow_commands()


def replay(argvs: list[list[str]]) -> list[str]:
    """Each argv's corpus line, run in turn through cli.main: the argv, the
    exit code and the sha256 of stdout and of stderr."""
    from beststop import cli

    lines = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        digests = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
        lines.append("\t".join([shlex.join(argv), str(code), *digests]))
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as cache:
        os.environ["BESTSTOP_CACHE"] = cache
        lines = replay(commands())
    CORPUS.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} commands to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
