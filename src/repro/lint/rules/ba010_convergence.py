"""BA010: approximate-agreement algorithms declare their contraction rate.

Paper invariant: the Dolev-Reischuk accounting prices a protocol by its
declared budgets; the ε-agreement workloads extend that discipline to
*convergence* — each round must shrink the correct-value diameter by a
declared factor, and the round budget ``m`` is derived from it.  An
approximate algorithm without a stated rate has an unpriceable round
budget, exactly like an exact algorithm without a message bound.

The rule: every (transitive) subclass of ``ApproximateAgreement`` must
assign ``convergence_rate`` in its *own* class body, as a string literal
in the bound-expression language, and the expression must evaluate to a
ratio strictly inside ``(0, 1)`` at every point of the shared sample grid
— a "rate" of ``1`` (no contraction) or ``3/2`` (divergence) is a typo
the type system cannot catch but this rule can.

Note the rule checks the *declaration*, not the implementation; the fuzz
oracle's ``eps_violation`` verdict and the statistical harness check the
implementation against it (``strawman-overshoot`` declares an honest
``1 / 2`` and fails the oracle, not this rule).
"""

from __future__ import annotations

from typing import Iterator

from repro.bounds.expressions import (
    SAMPLE_GRID,
    BoundExpressionError,
    evaluate_rate,
)
from repro.lint.asthelpers import constant_str
from repro.lint.engine import (
    ClassRecord,
    Finding,
    ProjectIndex,
    Rule,
    SourceFile,
    register,
)

#: The root of the approximate family; the root itself is exempt (it is
#: the abstract contract, with no rate of its own).
_APPROX_ROOT = "ApproximateAgreement"


@register
class ConvergenceRateRule(Rule):
    """BA010: ε-agreement algorithms declare a contraction rate in (0, 1)."""

    rule_id = "BA010"
    summary = "approximate algorithms must declare a convergence rate in (0, 1)"

    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        # The full class index, not just algorithm_classes: a subclass
        # naming ``ApproximateAgreement`` as a base is in scope even when
        # the abstract root itself is outside the linted paths.
        for record in project.subclasses(_APPROX_ROOT):
            if record.display == file.display:
                yield from self._check_class(file, record)

    def _check_class(self, file: SourceFile, record: ClassRecord) -> Iterator[Finding]:
        declaration_node = record.attributes.get("convergence_rate")
        if declaration_node is None:
            yield file.finding(
                record.node,
                self.rule_id,
                f"approximate algorithm {record.name!r} does not declare "
                f"'convergence_rate' in its own body (the per-round "
                f"diameter contraction its round budget is derived from)",
            )
            return
        declaration = constant_str(declaration_node)
        if declaration is None:
            yield file.finding(
                declaration_node,
                self.rule_id,
                f"{record.name}.convergence_rate must be a string literal "
                f"bound expression (e.g. '1 / 2' or 't / (n - 2*t)')",
            )
            return
        for point in SAMPLE_GRID:
            try:
                rate = evaluate_rate(declaration, point)
            except (BoundExpressionError, ZeroDivisionError) as error:
                sample = ", ".join(
                    f"{name}={point[name]}" for name in ("n", "t")
                )
                yield file.finding(
                    declaration_node,
                    self.rule_id,
                    f"{record.name}.convergence_rate = {declaration!r} does "
                    f"not evaluate to a contraction at {sample}: {error}",
                )
                return
            if rate is None:
                # Sentinels ('derived'/'unstated') defeat the discipline
                # for a rate: the round budget is *computed* from it.
                yield file.finding(
                    declaration_node,
                    self.rule_id,
                    f"{record.name}.convergence_rate = {declaration!r} must "
                    f"be a concrete expression, not a sentinel — the round "
                    f"budget m is derived from the rate",
                )
                return
