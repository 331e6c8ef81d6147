"""BA002: every algorithm declares its paper bounds, and they match.

Paper invariant: the whole point of Dolev & Reischuk's accounting is that
each protocol comes with explicit budgets — phases, messages, and (for
authenticated protocols) signatures.  Every concrete
``AgreementAlgorithm`` subclass must therefore declare ``phase_bound`` and
``message_bound`` (plus ``signature_bound`` when ``authenticated``) in its
own class body, as expression strings of the bound language in
:mod:`repro.bounds.expressions` — or the explicit sentinels ``"derived"``
/ ``"unstated"``.

Where the paper states a closed form, the declaration is additionally
cross-checked *numerically* against the canonical formula from
:mod:`repro.bounds.formulas` over a grid of sample parameters, so a typo
like ``2*t*t + 3*t`` where Theorem 3 says ``2*t*t + 2*t`` is caught
statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.bounds.expressions import (
    SAMPLE_GRID,
    SENTINELS,
    BoundExpressionError,
    evaluate_bound,
    validate_bound_expression,
)
from repro.lint.asthelpers import constant_bool, constant_str
from repro.lint.engine import (
    ClassRecord,
    Finding,
    ProjectIndex,
    Rule,
    SourceFile,
    register,
)

#: Canonical closed forms from the paper, keyed by the algorithm's
#: registry ``name``.  Only bounds the paper actually states appear here;
#: ``"derived"``/``"unstated"`` declarations are never cross-checked.
PAPER_FORMS: Mapping[str, Mapping[str, str]] = {
    "algorithm-1": {
        "phase_bound": "theorem3_phases(t)",
        "message_bound": "theorem3_message_upper_bound(t)",
    },
    "algorithm-2": {
        "phase_bound": "theorem4_phases(t)",
        "message_bound": "theorem4_message_upper_bound(t)",
    },
    "algorithm-3": {
        "phase_bound": "lemma1_phases(t, s)",
        "message_bound": "lemma1_message_upper_bound(n, t, s)",
    },
    "algorithm-4": {
        "phase_bound": "3",
        "message_bound": "theorem6_message_upper_bound(m)",
    },
    "algorithm-5": {
        "phase_bound": "our_algorithm5_phase_bound(t, s)",
    },
    "informed-algorithm-2": {
        "phase_bound": "3*t + 4",
        "message_bound": "theorem4_message_upper_bound(t) + (t + 1) * (n - 2*t - 1)",
    },
}

@register
class BoundDeclarationRule(Rule):
    """BA002: concrete algorithms declare phase/message/signature budgets."""

    rule_id = "BA002"
    summary = "algorithms must declare paper bounds that match the closed forms"

    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        for record in project.algorithm_classes:
            if record.display == file.display:
                yield from self._check_class(file, record, project)

    def _check_class(
        self, file: SourceFile, record: ClassRecord, project: ProjectIndex
    ) -> Iterator[Finding]:
        required = ["phase_bound", "message_bound"]
        if self._is_authenticated(record, project):
            required.append("signature_bound")
        paper = PAPER_FORMS.get(self._registry_name(record, project) or "", {})
        for attribute in required:
            declaration_node = record.attributes.get(attribute)
            if declaration_node is None:
                yield file.finding(
                    record.node,
                    self.rule_id,
                    f"algorithm class {record.name!r} does not declare "
                    f"{attribute!r} in its own body",
                )
                continue
            declaration = constant_str(declaration_node)
            if declaration is None:
                yield file.finding(
                    declaration_node,
                    self.rule_id,
                    f"{record.name}.{attribute} must be a string literal "
                    f"(a bound expression, 'derived' or 'unstated')",
                )
                continue
            if declaration in SENTINELS:
                continue
            try:
                validate_bound_expression(declaration)
            except BoundExpressionError as error:
                yield file.finding(
                    declaration_node, self.rule_id, str(error)
                )
                continue
            canonical = paper.get(attribute)
            if canonical is not None:
                yield from self._cross_check(
                    file, declaration_node, record.name, attribute,
                    declaration, canonical,
                )

    def _cross_check(
        self,
        file: SourceFile,
        declaration_node: ast.expr,
        class_name: str,
        attribute: str,
        declaration: str,
        canonical: str,
    ) -> Iterator[Finding]:
        for point in SAMPLE_GRID:
            try:
                declared = evaluate_bound(declaration, point)
                expected = evaluate_bound(canonical, point)
            except BoundExpressionError as error:
                yield file.finding(declaration_node, self.rule_id, str(error))
                return
            if declared != expected:
                sample = ", ".join(
                    f"{name}={point[name]}" for name in ("n", "t", "s", "m")
                )
                yield file.finding(
                    declaration_node,
                    self.rule_id,
                    f"{class_name}.{attribute} = {declaration!r} disagrees "
                    f"with the paper's closed form {canonical!r} at "
                    f"{sample}: declared {declared}, paper says {expected}",
                )
                return

    def _registry_name(
        self, record: ClassRecord, project: ProjectIndex
    ) -> str | None:
        return constant_str(project.resolve_class_attribute(record, "name"))

    def _is_authenticated(
        self, record: ClassRecord, project: ProjectIndex
    ) -> bool:
        declared = constant_bool(
            project.resolve_class_attribute(record, "authenticated")
        )
        # AgreementAlgorithm defaults to authenticated=True.
        return True if declared is None else declared
