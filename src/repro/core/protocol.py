"""Protocol abstractions: processors, contexts, and agreement algorithms.

The paper models an agreement algorithm as a family of *correctness rules*
``R_p : ISH × PR → MSG`` (given p's individual subhistory of the first
``k-1`` phases, what p sends to each q in phase ``k``) together with
*decision functions* ``F_p : ISH → 2^V``.

Here a :class:`Processor` is the stateful executable form of ``(R_p, F_p)``:
the runner calls :meth:`Processor.on_phase` once per phase with the messages
delivered since the previous call (p's new inedges), and the processor
returns the edges it wants to send; after the last phase the runner reads
:meth:`Processor.decision`.  A processor that follows its algorithm's rules
at every phase is *correct at every phase* in the paper's sense — the runner
executes correct processors exactly this way, while faulty processors are
driven by an :class:`~repro.adversary.base.Adversary` instead.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Sequence

from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.types import (
    TRANSMITTER,
    ProcessorId,
    Value,
    check_population,
)
from repro.crypto.signatures import Signature, SignatureService, SigningKey

if TYPE_CHECKING:
    from repro.approx.coins import CoinSource


@dataclass
class Context:
    """Per-processor runtime context supplied by the runner.

    Carries the processor's identity, the system parameters, and its signing
    capability.  Verification needs no capability; signing does.
    """

    pid: ProcessorId
    n: int
    t: int
    transmitter: ProcessorId
    key: SigningKey
    service: SignatureService
    #: Seeded coin stream for randomized algorithms; ``None`` for the
    #: deterministic exact-BA zoo (which must never consult it).
    coins: "CoinSource | None" = None

    def sign(self, payload: Any) -> Signature:
        """Sign *payload* as this processor."""
        return self.service.sign(self.key, payload)

    def verify(self, signature: Signature, payload: Any) -> bool:
        """Check any processor's signature over *payload*."""
        return self.service.verify(signature, payload)

    def others(self) -> list[ProcessorId]:
        """Every processor id except this one."""
        return [q for q in range(self.n) if q != self.pid]


class Processor(abc.ABC):
    """The executable form of one processor's correctness rule and decision.

    Subclasses implement :meth:`on_phase`; state lives on the instance.  The
    runner guarantees:

    * :meth:`bind` is called exactly once, before any phase;
    * :meth:`on_phase` is called for phases ``1, 2, ..., num_phases`` in
      order, with *inbox* holding exactly the messages sent to this
      processor in the previous phase (for the transmitter, phase 1's inbox
      contains the phase-0 input edge);
    * :meth:`decision` is read only after the final phase.
    """

    ctx: Context

    def bind(self, ctx: Context) -> None:
        """Attach the runtime context; called once by the runner."""
        self.ctx = ctx
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclass initialisation that needs the context."""

    @abc.abstractmethod
    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        """Process the inedges of phase ``phase - 1``; return phase-``phase`` sends.

        Returns an iterable of ``(destination, payload)`` pairs.  Sending
        nothing is expressed by returning an empty iterable — the model has
        no edge when no message is sent.
        """

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        """Receive the messages sent during the algorithm's last phase.

        In the paper's model a decision function ``F_p`` maps the *complete*
        individual subhistory to a value, so messages sent in the final
        phase still influence decisions even though nothing can be sent in
        response.  The runner calls this exactly once, after the last
        :meth:`on_phase`, and then reads :meth:`decision`.
        """

    @abc.abstractmethod
    def decision(self) -> Value | None:
        """The processor's decided value (``None`` while undecided)."""

    def has_terminated(self) -> bool:
        """Whether this processor is done under variable-round execution.

        Only consulted when the algorithm declares
        ``variable_rounds = True``; the run stops early once every correct
        processor reports ``True``.  Fixed-round algorithms never see this
        called, so the default keeps exact-BA runs byte-identical.
        """
        return False


class AgreementAlgorithm(abc.ABC):
    """A complete agreement algorithm for ``n`` processors tolerating ``t`` faults.

    Concrete algorithms (Dolev–Strong, the paper's Algorithms 1–5, ...)
    subclass this.  An instance is a *configured* algorithm — it knows its
    ``n``, ``t`` and any tuning parameters (like Algorithm 3's chain-set
    size ``s``) — and acts as a factory for per-processor
    :class:`Processor` instances.

    Every concrete subclass must declare its information-exchange budget as
    class attributes — ``phase_bound``, ``message_bound`` and (when
    authenticated) ``signature_bound`` — written in the expression language
    of :mod:`repro.bounds.expressions` over its system parameters.  The
    paper's bounds are only meaningful for algorithms that state their
    budgets up front; ``repro lint`` rule BA002 verifies the declarations
    statically and cross-checks them against the closed forms in
    :mod:`repro.bounds.formulas`.
    """

    #: Short identifier used in tables and reports.
    name: ClassVar[str] = "abstract"
    #: Whether the algorithm relies on the signature scheme.
    authenticated: ClassVar[bool] = True
    #: The set of values the transmitter may send (``None`` = any hashable).
    #: The paper's Algorithms 1–5 are binary — value 1 is structurally
    #: special (only 1-messages are relayed) — so they declare ``{0, 1}``
    #: and the runner rejects other inputs instead of silently deciding 0.
    value_domain: ClassVar[frozenset[Any] | None] = None

    #: Declared worst-case number of phases, as a bound expression.
    phase_bound: ClassVar[str | None] = None
    #: Declared worst-case messages sent by correct processors.
    message_bound: ClassVar[str | None] = None
    #: Declared worst-case signatures sent by correct processors (required
    #: for authenticated algorithms; ``"unstated"`` when the paper gives no
    #: closed form).
    signature_bound: ClassVar[str | None] = None
    #: Per-round contraction rate of the correct-value diameter, as a bound
    #: expression evaluating into ``(0, 1)`` (approximate-agreement
    #: algorithms only; lint rule BA010 requires it on every
    #: ``ApproximateAgreement`` subclass).
    convergence_rate: ClassVar[str | None] = None

    #: Whether the run length is a predicate (``Processor.has_terminated``)
    #: rather than the fixed ``num_phases()`` schedule.  When ``True`` the
    #: runner stops as soon as every correct processor has terminated;
    #: ``num_phases()`` becomes the cap.
    variable_rounds: ClassVar[bool] = False
    #: Whether processors consult ``Context.coins``.  Drives coin-seed
    #: derivation in the fuzz campaign and the ``--seed`` CLI flag.
    uses_coins: ClassVar[bool] = False

    def __init__(self, n: int, t: int, *, transmitter: ProcessorId = TRANSMITTER) -> None:
        check_population(n, t)
        if transmitter != TRANSMITTER:
            # All algorithm descriptions in the paper index processors from
            # the transmitter; relabeling is trivial for callers, so the
            # library standardises on transmitter == 0.
            raise ConfigurationError("this library fixes the transmitter at id 0")
        self.n = n
        self.t = t
        self.transmitter = transmitter

    @abc.abstractmethod
    def num_phases(self) -> int:
        """The (fixed) number of phases a run of this algorithm executes."""

    @abc.abstractmethod
    def make_processor(self, pid: ProcessorId) -> Processor:
        """Create the protocol instance for processor *pid*."""

    def check_value(self, value: Value) -> None:
        """Raise :class:`ConfigurationError` unless this algorithm can agree
        on *value*: it must be hashable and in ``value_domain``, if declared."""
        if not isinstance(value, Hashable):
            raise ConfigurationError(f"value must be hashable, got {value!r}")
        if self.value_domain is not None and value not in self.value_domain:
            raise ConfigurationError(
                f"{self.name} only agrees on values in "
                f"{sorted(self.value_domain, key=repr)}; got {value!r} "
                f"(wrap a binary algorithm with MultivaluedAgreement for wider "
                f"domains)"
            )

    # ------------------------------------------------------- paper's bounds

    def bound_parameters(self) -> dict[str, int]:
        """The parameter values the declared bound expressions close over.

        Always ``n`` and ``t``; tuning parameters (``s``, ``m``, ``alpha``,
        ``width``) are included when the instance defines them as ints.
        """
        parameters = {"n": self.n, "t": self.t}
        for extra in ("s", "m", "alpha", "width"):
            value = getattr(self, extra, None)
            if isinstance(value, int) and not isinstance(value, bool):
                parameters[extra] = value
        return parameters

    def declared_bound(self, declaration: str | None) -> int | None:
        """Evaluate one declared bound expression at this configuration."""
        # Imported lazily: repro.bounds pulls in the executable proofs,
        # which themselves run algorithms through repro.core.
        from repro.bounds.expressions import evaluate_bound

        return evaluate_bound(declaration, self.bound_parameters())

    def upper_bound_phases(self) -> int | None:
        """The declared worst-case phase count (``num_phases`` never
        exceeds it), or ``None`` if no closed form is declared."""
        return self.declared_bound(self.phase_bound)

    def upper_bound_messages(self) -> int | None:
        """The paper's worst-case bound on messages sent by correct
        processors, or ``None`` if the paper states no closed form."""
        return self.declared_bound(self.message_bound)

    def upper_bound_signatures(self) -> int | None:
        """The paper's worst-case bound on signatures sent by correct
        processors, or ``None`` if the paper states no closed form."""
        return self.declared_bound(self.signature_bound)

    def describe(self) -> dict[str, object]:
        """Metadata row for comparison tables."""
        return {
            "name": self.name,
            "authenticated": self.authenticated,
            "n": self.n,
            "t": self.t,
            "phases": self.num_phases(),
            "message_bound": self.upper_bound_messages(),
            "signature_bound": self.upper_bound_signatures(),
        }
