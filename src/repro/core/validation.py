"""Checking the Byzantine Agreement conditions on finished runs.

The paper's conditions (for a ``t``-faulty history ``H``):

(i)  **Agreement** — if processors ``p`` and ``q`` are correct in ``H``,
     then ``F_p(pH) = F_q(qH)``;
(ii) **Validity** — if the transmitter and processor ``p`` are correct in
     ``H``, then ``F_p(pH) = v``, the transmitter's value.

The validator returns a structured report; ``require_agreement`` raises on
violation for use inside tests and the executable lower-bound proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ValidationError
from repro.core.runner import RunResult


@dataclass
class ValidationReport:
    """Outcome of checking the BA conditions on one run."""

    agreement: bool
    validity: bool
    #: True when every correct processor actually decided (no ``None``).
    all_decided: bool
    violations: list[str] = field(default_factory=list)
    #: Processors whose decisions were ignored (fault-excused); empty for
    #: the ordinary full check.
    excused: frozenset[int] = frozenset()

    @property
    def ok(self) -> bool:
        """True iff both BA conditions hold and everyone decided."""
        return self.agreement and self.validity and self.all_decided

    def __str__(self) -> str:
        suffix = (
            f" (excused: {sorted(self.excused)})" if self.excused else ""
        )
        if self.ok:
            return f"Byzantine Agreement holds{suffix}"
        return "; ".join(self.violations) + suffix


def check_byzantine_agreement(
    result: RunResult, *, excused: frozenset[int] = frozenset()
) -> ValidationReport:
    """Evaluate conditions (i) and (ii) on *result*.

    *excused* names correct processors whose decisions are ignored — the
    crash-tolerant reading used when delivery faults were injected: a
    processor whose messages the network tampered with is held to no
    stronger standard than a Byzantine-corrupted one, so only the
    remaining processors' decisions are constrained (and validity only
    applies when the transmitter itself is unexcused).
    """
    violations: list[str] = []
    decisions = {
        pid: value
        for pid, value in result.decisions.items()
        if pid not in excused
    }

    undecided = sorted(pid for pid, v in decisions.items() if v is None)
    all_decided = not undecided
    if undecided:
        violations.append(f"correct processors {undecided} never decided")

    values = set(decisions.values())
    agreement = len(values) <= 1
    if not agreement:
        per_value = {
            repr(v): sorted(p for p, d in decisions.items() if d == v)
            for v in values
        }
        violations.append(f"agreement violated: {per_value}")

    # Validity matches a decision to the input as a set matches a member:
    # by identity first, so a NaN input its processors decided passes.
    validity = True
    value = result.input_value
    if (
        result.transmitter in result.correct
        and result.transmitter not in excused
        and decisions
    ):
        wrong = sorted(
            pid
            for pid, decided in decisions.items()
            if not (decided is value or decided == value)
        )
        if wrong:
            validity = False
            violations.append(
                f"validity violated: transmitter correctly sent "
                f"{result.input_value!r} but {wrong} decided otherwise"
            )

    return ValidationReport(
        agreement=agreement,
        validity=validity,
        all_decided=all_decided,
        violations=violations,
        excused=frozenset(excused) & result.correct,
    )


def require_agreement(result: RunResult) -> None:
    """Raise :class:`~repro.core.errors.ValidationError` unless BA holds."""
    report = check_byzantine_agreement(result)
    if not report.ok:
        raise ValidationError(str(report))
