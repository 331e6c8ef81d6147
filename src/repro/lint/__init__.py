"""Protocol linter: AST-based static verification of the paper's discipline.

The bounds of Dolev & Reischuk only hold for algorithms that are
*deterministic* correctness rules with *declared* message/signature/phase
budgets.  The runtime conformance checker (:mod:`repro.core.conformance`)
can only catch a violation a simulation happens to exercise; this package
checks the discipline statically, before anything runs.

Rule catalogue (each encodes a paper invariant — see README "Static
analysis"):

* **BA001** — no nondeterminism in protocol code (``random``, wall-clock
  time, ``os.urandom``, unordered ``set`` iteration).
* **BA002** — every ``AgreementAlgorithm`` subclass declares
  ``message_bound``/``phase_bound`` (and ``signature_bound`` when
  authenticated), cross-checked against :mod:`repro.bounds.formulas`.
* **BA003** — all signing authority flows through the runner:
  no ``SignatureService``/``SigningKey`` construction in algorithm modules.
* **BA004** — received :class:`~repro.core.message.Envelope` objects are
  never mutated (tamper-proof histories).
* **BA005** — no bare dict-order fan-out in protocol hot paths without a
  sorted key.
* **BA006** — a processor's statically-resolvable per-phase send fan-out
  must fit the declared whole-run ``message_bound``.
* **BA007** — same accounting for signing sites vs. ``signature_bound``.
* **BA008** — unverified relayed payloads (taint from inbox reads) must
  not reach decision state in authenticated algorithms.
* **BA009** — no shared-state mutation reachable from the parallel sweep
  worker entry points.
* **BA100** — (notice) ``# noqa: BA00x`` comments that suppress nothing.

BA006-BA009 are whole-program analyses built on the protocol call graph
in :mod:`repro.lint.analysis`.

Run it as ``repro lint [paths] [--format=text|json|sarif]``; see
``repro lint --explain BA006`` for any rule's rationale, and
``--baseline lint_baseline.json`` for the grandfathering CI gate.
"""
