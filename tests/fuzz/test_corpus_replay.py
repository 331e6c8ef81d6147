"""Replay every committed counterexample in ``tests/fuzz_corpus/``.

Each corpus file is a shrunk, fuzz-derived (or hand-minimised) adversary
script that once produced the recorded verdict.  Replaying them here makes
every counterexample a permanent regression test: the verdict must
reproduce bit-for-bit on the current code, and each entry must round-trip
through its JSON form unchanged.
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import (
    CorpusEntry,
    load_entries,
    replay_entry,
    save_entry,
    save_trace,
)

pytestmark = pytest.mark.fuzz

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"
ENTRIES = load_entries(CORPUS_DIR)


def _entry_id(item):
    path, _ = item
    return path.stem


def test_corpus_is_not_empty():
    # The committed corpus must exist: an accidentally-deleted directory
    # would otherwise skip every replay below and look green.
    assert len(ENTRIES) >= 3


@pytest.mark.parametrize("item", ENTRIES, ids=_entry_id)
def test_recorded_verdict_reproduces(item):
    _, entry = item
    outcome = replay_entry(entry)
    assert outcome.verdict == entry.verdict, (
        f"corpus entry no longer reproduces: recorded {entry.verdict!r} "
        f"({entry.detail}), replay gave {outcome.verdict!r} ({outcome.detail})"
    )


@pytest.mark.parametrize("item", ENTRIES, ids=_entry_id)
def test_entry_round_trips_through_json(item):
    _, entry = item
    assert CorpusEntry.from_json_dict(entry.to_json_dict()) == entry


@pytest.mark.parametrize("item", ENTRIES, ids=_entry_id)
def test_entry_resaves_byte_identical(item, tmp_path):
    path, entry = item
    saved = save_entry(tmp_path, entry)
    assert saved.name == path.name
    assert saved.read_bytes() == path.read_bytes()


def test_save_trace_writes_replay_trace_beside_entry(tmp_path):
    from repro.obs.inspect import summarize_trace

    _, entry = ENTRIES[0]
    entry_path = save_entry(tmp_path, entry)
    trace_path = save_trace(entry_path, entry)
    assert trace_path.parent == entry_path.parent
    assert trace_path.name == entry_path.stem + ".trace.jsonl"
    summary = summarize_trace(trace_path)
    assert summary.algorithm == entry.case.algorithm
    assert summary.n == entry.case.n and summary.t == entry.case.t
    # The trace suffix must not collide with the ``*.json`` corpus glob —
    # load_entries still sees exactly one entry in the directory.
    assert len(load_entries(tmp_path)) == 1


@pytest.mark.parametrize("item", ENTRIES, ids=_entry_id)
def test_entries_are_shrunk(item):
    # Corpus hygiene: committed counterexamples are minimised — a small
    # coalition and a script a human can read at a glance.
    _, entry = item
    assert len(entry.case.script.faulty) <= entry.case.t
    assert len(entry.case.script.mutations) <= 3
