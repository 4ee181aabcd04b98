"""The byte-identity corpus: every command of tests/golden/cli.tsv still
exits and prints exactly as recorded (see tests/golden/update.py, which
rewrites the file).  The replay of its 1,230 commands takes 2.1-2.7 s
on a 2-vCPU Xeon, the 8.6 MB rank-10 312 tree as JSON included."""
from __future__ import annotations

import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "golden"))
import update  # noqa: E402


def test_corpus_replays_byte_identical(monkeypatch, tmp_path):
    monkeypatch.setenv("BESTSTOP_CACHE", str(tmp_path))
    want = update.CORPUS.read_text().splitlines()
    got = update.replay([shlex.split(line.split("\t")[0]) for line in want])
    changed = [w.split("\t")[0] for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} commands differ: " + "; ".join(changed[:20])


def test_corpus_holds_every_workflow_command():
    corpus = {line.split("\t")[0] for line in update.CORPUS.read_text().splitlines()}
    workflow = update.workflow_commands()
    assert len(workflow) >= 20
    assert [shlex.join(argv) for argv in workflow if shlex.join(argv) not in corpus] == []
