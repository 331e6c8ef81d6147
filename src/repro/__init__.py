"""repro — a reproduction of Dolev & Reischuk,
*Bounds on Information Exchange for Byzantine Agreement* (PODC 1982 /
JACM 32(1), 1985).

The library contains, built from scratch:

* a lock-step synchronous simulator implementing the paper's formal model
  of phases, histories and individual subhistories (:mod:`repro.core`);
* a registry-oracle signature scheme with the exact properties the proofs
  assume — unforgeability plus collusion (:mod:`repro.crypto`);
* the paper's Algorithms 1–5 and the published baselines — Dolev–Strong
  (classic and active-set) and oral messages OM(t)
  (:mod:`repro.algorithms`);
* an adversary framework including the lower-bound proofs' constructions
  (:mod:`repro.adversary`);
* **executable versions of Theorems 1 and 2** — the splitting and
  starve-and-switch adversaries actually break under-communicating
  algorithms (:mod:`repro.bounds`);
* sweep/report tooling that regenerates every bound table
  (:mod:`repro.analysis`).

Quickstart::

    from repro import Algorithm5, run, check_byzantine_agreement

    algorithm = Algorithm5(n=100, t=3)      # O(n + t^2) messages
    result = run(algorithm, input_value=1)
    assert check_byzantine_agreement(result).ok
    print(result.metrics.messages_by_correct, "messages")
"""

from repro.adversary.base import Adversary, NullAdversary
from repro.adversary.lowerbound import IgnoreFirstAdversary, ReplayAdversary
from repro.adversary.standard import (
    CrashAdversary,
    EquivocatingTransmitter,
    GarbageAdversary,
    ScriptedAdversary,
    SelectiveSilenceAdversary,
    SilentAdversary,
    SimulatingAdversary,
)
from repro.algorithms.active_set import ActiveSetBroadcast
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm2 import Algorithm2
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.algorithm4 import Algorithm4
from repro.algorithms.algorithm5 import Algorithm5
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.oral_messages import OralMessages
from repro.algorithms.registry import ALGORITHMS
from repro.bounds import formulas
from repro.bounds.theorem1 import theorem1_experiment
from repro.bounds.theorem2 import theorem2_experiment
from repro.core.errors import ConfigurationError, ReproError
from repro.core.history import History
from repro.core.message import Envelope
from repro.core.metrics import MetricsLedger
from repro.core.protocol import AgreementAlgorithm, Context, Processor
from repro.core.runner import RunResult, run
from repro.core.validation import ValidationReport, check_byzantine_agreement, require_agreement
from repro.crypto.chains import SignatureChain
from repro.crypto.signatures import Signature, SignatureService

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "ActiveSetBroadcast",
    "Adversary",
    "AgreementAlgorithm",
    "Algorithm1",
    "Algorithm2",
    "Algorithm3",
    "Algorithm4",
    "Algorithm5",
    "ConfigurationError",
    "Context",
    "CrashAdversary",
    "DolevStrong",
    "Envelope",
    "EquivocatingTransmitter",
    "GarbageAdversary",
    "History",
    "IgnoreFirstAdversary",
    "MetricsLedger",
    "NullAdversary",
    "OralMessages",
    "Processor",
    "ReplayAdversary",
    "ReproError",
    "RunResult",
    "ScriptedAdversary",
    "SelectiveSilenceAdversary",
    "Signature",
    "SignatureChain",
    "SignatureService",
    "SilentAdversary",
    "SimulatingAdversary",
    "ValidationReport",
    "check_byzantine_agreement",
    "formulas",
    "require_agreement",
    "run",
    "theorem1_experiment",
    "theorem2_experiment",
    "__version__",
]
