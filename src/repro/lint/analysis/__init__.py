"""Interprocedural analyses over the whole linted tree.

The per-file rules (BA001-BA005) are syntactic; the modules here reason
about the *program*: a call graph over protocol code
(:mod:`repro.lint.analysis.callgraph`), symbolic per-invocation fan-out
estimates in the bound-expression language
(:mod:`repro.lint.analysis.symbolic`), and four rules built on top of
them:

* **BA006** — a processor's statically-resolvable send fan-out in a
  single ``on_phase`` invocation must fit inside the algorithm's declared
  whole-run ``message_bound``.
* **BA007** — same accounting for signing sites vs. ``signature_bound``.
* **BA008** — in authenticated algorithms, payloads read from the inbox
  are tainted until a verification step; tainted values must not reach
  decision state.
* **BA009** — no shared protocol/module state is mutated in code
  reachable from the parallel sweep worker entry points.

Everything here works purely on the ASTs the engine already parsed; the
graph is built once per run and memoized on ``ProjectIndex.caches``.
"""
