"""Approximate and randomized consensus: the second workload family.

The paper's bounds are stated for *exact* single-shot Byzantine Agreement,
but their modern context is probabilistic: Civit-Gilbert-Guerraoui (arXiv
2311.08060) extend the quadratic message lower bound to randomized
protocols, and the subquadratic escape routes all pay with randomness.
This package opens that frontier as runnable workloads:

* **ε-agreement** (approximate consensus) — every correct processor ends
  within ``eps`` of every other, inside the range of correct inputs.
  :class:`~repro.approx.midpoint.MidpointApprox` (trim ``t`` per side,
  take the midpoint; contraction rate ``1/2``) and
  :class:`~repro.approx.filtered_mean.FilteredMeanApprox` (trimmed mean;
  rate ``t/(n - 2t)``) follow Dolev-Lynch-Pinter-Stark-Weihl's synchronous
  scheme.  Each declares its contraction rate as a ``convergence_rate``
  bound-language expression (lint rule BA010) next to the usual
  phase/message budgets.
* **randomized consensus** — :class:`~repro.approx.benor.BenOr`
  (``n > 5t``): exact agreement with probabilistic termination, driven by
  a seeded, replayable :class:`~repro.approx.coins.CoinSource` threaded
  through the runner.  Termination is a predicate, not a schedule: the
  algorithm opts into the runner's variable-round mode and the run stops
  as soon as every correct processor has decided.

Correctness is judged by :mod:`repro.approx.validation`, whose verdict
predicate calls an approximate-agreement failure ``eps_violation``, and,
for the probabilistic claims, by the dependency-free statistical helpers
in :mod:`repro.approx.stats` (seeded KS / χ² assertions, geometric
round-count tails).
"""

from repro.approx.base import ApproximateAgreement, RandomizedConsensus
from repro.approx.benor import BenOr
from repro.approx.coins import CoinSource
from repro.approx.filtered_mean import FilteredMeanApprox
from repro.approx.midpoint import MidpointApprox
from repro.approx.strawman import OvershootMidpoint
from repro.approx.validation import (
    check_epsilon_agreement,
    check_randomized_consensus,
    check_run_conditions,
)

__all__ = [
    "ApproximateAgreement",
    "RandomizedConsensus",
    "BenOr",
    "CoinSource",
    "FilteredMeanApprox",
    "MidpointApprox",
    "OvershootMidpoint",
    "check_epsilon_agreement",
    "check_randomized_consensus",
    "check_run_conditions",
]
