"""Replay of the committed byte-identity corpus (see cli_corpus.py)."""

import json

import cli_corpus


def _entries():
    with open(cli_corpus.DATA, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def test_corpus_lists_exactly_the_generated_argvs():
    assert [entry["argv"] for entry in _entries()] == cli_corpus.argvs()


def test_corpus_replays_byte_identical(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", cli_corpus.COLUMNS)
    runner = cli_corpus.Runner(str(tmp_path))
    changed = [" ".join(entry["argv"]) for entry in _entries()
               if runner.digest(entry["argv"]) != entry["sha256"]]
    assert not changed, "%d outputs changed, first: %s" % (len(changed), changed[:5])
