"""Seeded Byzantine fuzzing: generated adversaries, oracle, shrinker, corpus.

The paper's lower-bound proofs are adversarial searches over protocol
histories — Theorem 1's splitting adversary ``A(p)`` replays recorded
traffic, Theorem 2's ``B`` set plays deaf.  This package mechanises that
search: a seeded generator composes small *mutation primitives* (drop,
equivocate, garble, replay, forge-attempt, selective silence) into
picklable :class:`~repro.fuzz.script.AdversaryScript` values, an oracle
classifies each finished run (safety violated / declared bound exceeded /
crash), and a shrinker minimises failing scripts into replayable JSON
counterexamples persisted under ``tests/fuzz_corpus/``.

Entry points: the ``repro fuzz`` CLI subcommand, or
:func:`~repro.fuzz.campaign.plan_cases` (Byzantine scripts) and
:func:`~repro.fuzz.campaign.plan_chaos_cases` (benign fault plans), whose
cases run in order on :func:`repro.analysis.parallel.run_tasks`.
"""

from repro.approx.validation import BOUND, OK, SAFETY
from repro.fuzz.campaign import (
    FUZZ_CONFIGS,
    FuzzCase,
    FuzzResult,
    plan_cases,
    shrink_result,
    summarize,
)
from repro.fuzz.corpus import (
    CorpusEntry,
    load_entries,
    load_entry,
    replay_entry,
    save_entry,
    save_trace,
)
from repro.fuzz.generator import generate_script
from repro.fuzz.mutations import (
    MUTATION_KINDS,
    DropInbound,
    DropOutbound,
    Equivocate,
    ForgeAttempt,
    GarbleOutbound,
    Mutation,
    ReplayStale,
    SelectiveSilence,
)
from repro.fuzz.oracle import CRASH, FuzzOutcome, classify_run, execute_script
from repro.fuzz.script import AdversaryScript, ScriptAdversary
from repro.fuzz.shrinker import shrink_script

__all__ = [
    "AdversaryScript",
    "ScriptAdversary",
    "Mutation",
    "MUTATION_KINDS",
    "DropInbound",
    "DropOutbound",
    "SelectiveSilence",
    "Equivocate",
    "ForgeAttempt",
    "GarbleOutbound",
    "ReplayStale",
    "generate_script",
    "FuzzOutcome",
    "classify_run",
    "execute_script",
    "OK",
    "SAFETY",
    "BOUND",
    "CRASH",
    "shrink_script",
    "CorpusEntry",
    "save_entry",
    "save_trace",
    "load_entry",
    "load_entries",
    "replay_entry",
    "FuzzCase",
    "FuzzResult",
    "FUZZ_CONFIGS",
    "plan_cases",
    "shrink_result",
    "summarize",
]
