"""Adversary interface.

A *t-faulty history* is one in which at most ``t`` processors are incorrect
— they deviate arbitrarily from their correctness rules.  The adversary is
the single entity that drives all faulty processors (the paper explicitly
allows faulty processors to collude).

Capabilities, matching the paper's model:

* full information — the adversary sees every message ever sent (by default
  only messages of phases strictly before the current one: the paper's
  history model makes a phase-``k`` label a function of phases ``< k``; a
  *rushing* view that also exposes the current phase's correct traffic can
  be requested for stress tests);
* collusion — it holds the signing keys of every faulty processor;
* no spoofing — every message it emits is stamped with the true faulty
  source, and it cannot emit messages on behalf of correct processors;
* no forging — it has no correct processor's key, so any "signature" of a
  correct processor it fabricates fails verification.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.core.message import Envelope
from repro.core.types import ProcessorId, Value
from repro.crypto.signatures import SignatureService, SigningKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.approx.coins import CoinSource
    from repro.core.history import History
    from repro.core.protocol import AgreementAlgorithm, Processor


#: What the adversary emits: (faulty source, destination, payload).
FaultySend = tuple[ProcessorId, ProcessorId, Any]


@dataclass
class AdversaryEnvironment:
    """Everything the adversary is handed at the start of a run."""

    n: int
    t: int
    transmitter: ProcessorId
    input_value: Value
    service: SignatureService
    #: Signing keys of the faulty processors only.
    keys: Mapping[ProcessorId, SigningKey]
    #: The algorithm under attack (usable to instantiate reference
    #: processors, e.g. for "behave like a correct processor except ..."
    #: strategies).
    algorithm: "AgreementAlgorithm"
    #: The run's coin stream (randomized algorithms only) — a simulated
    #: faulty processor behaving correctly flips the same coins a correct
    #: one would.  The full-information adversary may read it freely.
    coins: "CoinSource | None" = None

    def spawn(self, pid: ProcessorId) -> "Processor":
        """A protocol instance for faulty *pid*, bound as a correct one would
        be: with its own key and the run's service and coins."""
        return self.algorithm.spawn(pid, self.keys[pid], self.service, self.coins)


@dataclass
class PhaseView:
    """The adversary's view when choosing the faulty sends of one phase."""

    phase: int
    #: Messages delivered to each faulty processor at the start of this
    #: phase (i.e. sent to it during ``phase - 1``), source-sorted.
    inboxes: Mapping[ProcessorId, Sequence[Envelope]]
    #: Full history of phases ``0 .. phase - 1``.
    history: "History"
    #: Only populated when the run is executed with ``rushing=True``: the
    #: envelopes correct processors are sending in the *current* phase.
    rushing_outbox: Sequence[Envelope] = field(default_factory=tuple)

    def inbox(self, pid: ProcessorId) -> Sequence[Envelope]:
        """Messages delivered to faulty processor *pid* this phase."""
        return self.inboxes.get(pid, ())


class Adversary(abc.ABC):
    """Strategy driving all faulty processors of one run."""

    def __init__(self, faulty: Iterable[ProcessorId]) -> None:
        self._faulty = frozenset(faulty)
        self.env: AdversaryEnvironment | None = None

    @property
    def faulty(self) -> frozenset[ProcessorId]:
        """The set of processors this adversary corrupts."""
        return self._faulty

    def bind(self, env: AdversaryEnvironment) -> None:
        """Attach the run environment; called once by the runner."""
        self.env = env
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclass initialisation that needs the environment."""

    @abc.abstractmethod
    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        """Choose the messages every faulty processor sends this phase."""


class NullAdversary(Adversary):
    """No faults at all — used for the paper's fault-free histories H and G."""

    def __init__(self) -> None:
        super().__init__(faulty=())

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        return []
