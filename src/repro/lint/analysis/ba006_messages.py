"""BA006: per-phase send fan-out must fit the declared message budget.

Paper invariant: Theorem 1's whole-run message lower bound only means
something because each algorithm also declares its *upper* bound
(``message_bound``, PR 1).  A processor whose statically-resolvable send
sites already emit more messages in a **single** ``on_phase`` invocation
than the declared whole-run budget allows cannot possibly honour that
declaration — no schedule reconciles them.

The check walks every method reachable from ``on_phase`` through
resolved ``self.*``/delegated calls, collects outgoing-shaped
``(destination, payload)`` tuples, multiplies the sizes of their
enclosing loops symbolically (``for q in self.ctx.others()`` -> ``n - 1``,
``range(self.t + 1)`` -> ``t + 1``) and compares the sum against
``message_bound`` at the BA002 sample grid.  Sites under loops the
analysis cannot size (``for q in self.relays``) are *skipped*, and a
finding requires strict exceedance at **every** sampled point, so the
rule only speaks when the budget is structurally unreconcilable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.bounds.expressions import (
    SAMPLE_GRID,
    SENTINELS,
    BoundExpressionError,
    validate_bound_expression,
)
from repro.lint.analysis.callgraph import FunctionRecord, ProtocolGraph, protocol_graph
from repro.lint.analysis.symbolic import (
    FanoutEstimate,
    SiteFinder,
    accumulate_fanout,
    exceeds_everywhere,
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

#: list methods that enqueue one outgoing message per call.
_EMIT_METHODS = frozenset({"append", "insert"})


def _is_outgoing_shaped(file: SourceFile, node: ast.Tuple) -> bool:
    """Whether a Load 2-tuple sits in an outgoing-message position:
    an element of a list / comprehension being built, an ``append``
    argument, or a ``yield``.  Pair-returns and tuple-packing assignments
    are deliberately not counted."""
    parent = file.parents.get(node)
    if isinstance(parent, ast.List):
        return node in parent.elts
    if isinstance(parent, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return node is parent.elt
    if isinstance(parent, ast.Yield):
        return True
    if isinstance(parent, ast.Call) and node in parent.args:
        func = parent.func
        return isinstance(func, ast.Attribute) and func.attr in _EMIT_METHODS
    return False


def message_sites(record: FunctionRecord) -> Iterator[ast.AST]:
    """Outgoing-shaped ``(destination, payload)`` tuples in one method."""
    for node in ast.walk(record.node):
        if (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and isinstance(node.ctx, ast.Load)
            and _is_outgoing_shaped(record.file, node)
        ):
            yield node


def _phase_reachable_methods(
    graph: ProtocolGraph, processor: ClassRecord
) -> list[FunctionRecord]:
    """Methods executed by one ``on_phase`` call, via resolved edges.

    Module-level helpers are excluded from site collection: a bare
    function returning a pair is far more likely a utility than a send.
    """
    entry = graph.resolve_method(processor, "on_phase")
    if entry is None:
        return []
    return [
        graph.functions[qname]
        for qname in sorted(graph.reachable_from({entry}))
        if graph.functions[qname].class_name is not None
    ]


def _declared_bound(
    project: ProjectIndex, record: ClassRecord, attribute: str
) -> str | None:
    """The declared bound expression, or ``None`` when absent, a
    sentinel, or malformed (BA002 owns those complaints)."""
    declaration = constant_str(project.resolve_class_attribute(record, attribute))
    if declaration is None or declaration in SENTINELS:
        return None
    try:
        validate_bound_expression(declaration)
    except BoundExpressionError:
        return None
    return declaration


def budget_findings(
    rule_id: str,
    file: SourceFile,
    project: ProjectIndex,
    attribute: str,
    sites: SiteFinder,
    verb: str,
    noun: str,
) -> Iterator[Finding]:
    """Findings for every algorithm class of *file* one of whose
    processors can, in a single ``on_phase`` call, reach more *sites*
    than the algorithm's declared whole-run *attribute* allows."""
    graph = protocol_graph(project)
    estimates: dict[ClassRecord, FanoutEstimate] = {}
    for record in project.algorithm_classes:
        if record.display != file.display:
            continue
        declaration = _declared_bound(project, record, attribute)
        if declaration is None:
            continue
        processors = graph.instantiated_processors(record)
        for processor in sorted(processors, key=lambda processor: processor.name):
            estimate = estimates.get(processor)
            if estimate is None:
                estimate = accumulate_fanout(
                    _phase_reachable_methods(graph, processor), sites
                )
                estimates[processor] = estimate
            if estimate.expr is None:
                continue
            exceeded = exceeds_everywhere(estimate.expr, declaration, SAMPLE_GRID)
            if exceeded is None:
                continue
            point, static_value, declared_value = exceeded
            sample = ", ".join(f"{name}={point[name]}" for name in ("n", "t"))
            # Anchored on the declaration when it is in this class body,
            # so a ``# noqa`` on the declaration line suppresses it.
            yield file.finding(
                record.attributes.get(attribute, record.node),
                rule_id,
                f"{processor.name} (used by {record.name}) can {verb} "
                f"{estimate.expr} {noun} in a single on_phase call, "
                f"which exceeds {attribute} = {declaration!r} at every "
                f"sampled point (e.g. {sample}: {static_value} > "
                f"{declared_value}); one invocation already overruns "
                f"the whole-run budget",
            )


@register
class MessageBudgetRule(Rule):
    """BA006: one phase must not out-send the declared whole-run budget."""

    rule_id = "BA006"
    summary = "per-phase send fan-out must fit the declared message_bound"

    def applies(self, file: SourceFile) -> bool:
        return file.protocol_code

    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        return budget_findings(
            self.rule_id, file, project, "message_bound", message_sites,
            "emit", "messages",
        )
