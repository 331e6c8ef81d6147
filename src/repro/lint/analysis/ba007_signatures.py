"""BA007: per-phase signing fan-out must fit the declared signature budget.

Paper invariant: Theorem 1 proves authenticated Byzantine agreement needs
Omega(nt) signatures in the worst case, and each authenticated algorithm
declares its matching upper bound (``signature_bound``).  Like BA006 for
messages, a processor whose statically-resolvable signing sites already
produce more signatures in a **single** ``on_phase`` invocation than the
declared whole-run budget cannot honour that declaration.

Signing sites are the calls that mint new signatures in this codebase:
``service.sign(...)`` / ``ctx.sign(...)``, ``service.endorse(...)``,
``SignatureChain.initial(...)``, and ``chain.extend(key, service)``
(recognised by a ``key`` argument, which distinguishes it from
``list.extend``).  The check is BA006's ``budget_findings`` over these
sites and ``signature_bound``: unsized loops skip their sites, and a
finding requires strict exceedance at every sampled point.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis.ba006_messages import budget_findings
from repro.lint.analysis.callgraph import FunctionRecord
from repro.lint.engine import Finding, ProjectIndex, Rule, SourceFile, register

#: attribute calls that always mint exactly one new signature.
_SIGNING_ATTRS = frozenset({"sign", "endorse", "initial"})


def _mentions_key(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "key"
    if isinstance(node, ast.Attribute):
        return node.attr == "key"
    return False


def signature_sites(record: FunctionRecord) -> Iterator[ast.AST]:
    """Calls that create a signature inside one method."""
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        if node.func.attr in _SIGNING_ATTRS:
            yield node
        elif node.func.attr == "extend" and any(
            _mentions_key(arg) for arg in node.args
        ):
            # SignatureChain.extend(key, service) — not list.extend.
            yield node


@register
class SignatureBudgetRule(Rule):
    """BA007: one phase must not out-sign the declared whole-run budget."""

    rule_id = "BA007"
    summary = "per-phase signing fan-out must fit the declared signature_bound"

    def applies(self, file: SourceFile) -> bool:
        return file.protocol_code

    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        return budget_findings(
            self.rule_id, file, project, "signature_bound", signature_sites,
            "create", "signatures",
        )
