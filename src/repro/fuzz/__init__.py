"""Seeded Byzantine fuzzing: generated adversaries, oracle, shrinker, corpus.

The paper's lower-bound proofs are adversarial searches over protocol
histories — Theorem 1's splitting adversary ``A(p)`` replays recorded
traffic, Theorem 2's ``B`` set plays deaf.  This package mechanises that
search: a seeded generator composes small *mutation primitives* (drop,
equivocate, garble, replay, forge-attempt, selective silence) into
picklable :class:`~repro.fuzz.script.AdversaryScript` values, an oracle
runs each as a one-case :func:`~repro.core.batch.run_batch` and
classifies it (safety violated / declared bound exceeded / crash), and a
shrinker minimises failing scripts into replayable JSON counterexamples
persisted under ``tests/fuzz_corpus/``.

Entry points: the ``repro fuzz`` CLI subcommand, or
:func:`~repro.fuzz.campaign.plan_cases` (Byzantine scripts, or benign
fault plans with ``fault_rate=``), whose cases run in order on
:func:`repro.analysis.parallel.run_tasks`.  The campaign, the shrinker
and a corpus replay all run a :class:`~repro.fuzz.campaign.FuzzCase`
through :meth:`~repro.fuzz.campaign.FuzzCase.execute`.
"""
