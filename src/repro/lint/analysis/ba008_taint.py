"""BA008: unverified relayed payloads must not influence decisions.

Paper invariant: the Dolev-Reischuk lower-bound argument (and every
authenticated algorithm's correctness proof) hinges on a processor only
acting on relayed values whose signature chains it has *checked* — an
unverified payload is exactly the forgery the adversary is allowed to
inject.  In code terms: anything read off an inbox ``Envelope.payload``
is tainted until it flows through a verification step, and a tainted
value must never reach the state the processor's ``decision()`` reads
(nor a ``decide(...)`` call).

Mechanics: a method counts as *verifying* when it — directly or through
resolved callees — invokes anything named ``verify`` or
``is_input_edge`` (the trusted phase-0 input edge); verifying methods
are trusted wholesale, which keeps the rule quiet on the real tree where
validation helpers both check and store.  In non-verifying methods the
analysis propagates taint from ``.payload`` reads through local
assignments and loop targets, and flags stores into decision-feeding
``self`` attributes, mutating calls on them (``.append`` etc.), calls to
``decide``, and calls passing a tainted argument to a sibling method
that is known to store that parameter into decision state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis.callgraph import (
    FunctionRecord,
    ProtocolGraph,
    protocol_graph,
)
from repro.lint.engine import ClassRecord, Finding, ProjectIndex, Rule, SourceFile, register

#: Callee names whose invocation marks a method as a verification step.
VERIFY_MARKERS = frozenset({"verify", "is_input_edge"})

#: container mutators through which a tainted value can enter state.
_MUTATORS = frozenset({"append", "add", "extend", "insert", "update", "setdefault"})

_VERIFYING_CACHE_KEY = "ba008-verifying-functions"


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _expr_tainted(
    expr: ast.expr, tainted: set[str], *, payload_is_source: bool = True
) -> bool:
    for node in ast.walk(expr):
        if (
            payload_is_source
            and isinstance(node, ast.Attribute)
            and node.attr == "payload"
        ):
            return True
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in tainted
        ):
            return True
    return False


def _add_target(target: ast.expr, tainted: set[str]) -> None:
    if isinstance(target, ast.Name):
        tainted.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _add_target(element, tainted)
    elif isinstance(target, ast.Starred):
        _add_target(target.value, tainted)


def tainted_names(
    method: ast.AST,
    seed: frozenset[str],
    *,
    payload_is_source: bool = True,
) -> set[str]:
    """Names holding payload-derived (or *seed*-derived) values.

    Two sweeps over the body approximate a fixpoint through loops.  With
    ``payload_is_source=False`` only *seed* names propagate, which is how
    per-parameter summaries stay attributable to one parameter.
    """
    tainted: set[str] = set(seed)
    for _ in range(2):
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                if _expr_tainted(
                    node.value, tainted, payload_is_source=payload_is_source
                ):
                    for target in node.targets:
                        _add_target(target, tainted)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is not None and _expr_tainted(
                    node.value, tainted, payload_is_source=payload_is_source
                ):
                    _add_target(node.target, tainted)
            elif isinstance(node, ast.NamedExpr):
                if _expr_tainted(
                    node.value, tainted, payload_is_source=payload_is_source
                ):
                    _add_target(node.target, tainted)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _expr_tainted(
                    node.iter, tainted, payload_is_source=payload_is_source
                ):
                    _add_target(node.target, tainted)
    return tainted


def decision_attributes(graph: ProtocolGraph, processor: ClassRecord) -> set[str]:
    """``self`` attributes read by ``decision()`` or its resolved callees."""
    entry = graph.resolve_method(processor, "decision")
    if entry is None:
        return set()
    attrs: set[str] = set()
    for qname in graph.reachable_from({entry}):
        record = graph.functions[qname]
        if record.class_name is None:
            continue
        for node in ast.walk(record.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                attrs.add(node.attr)
    # ctx is runner-provided plumbing, never a decision *value*.
    attrs.discard("ctx")
    return attrs


def verifying_functions(project: ProjectIndex, graph: ProtocolGraph) -> set[str]:
    cached = project.caches.get(_VERIFYING_CACHE_KEY)
    if not isinstance(cached, set):
        cached = graph.functions_calling(VERIFY_MARKERS)
        project.caches[_VERIFYING_CACHE_KEY] = cached
    return cached


def _decision_store_target(target: ast.expr, decision_attrs: set[str]) -> str | None:
    """The decision attribute a store targets (``self.a = ...``,
    ``self.a[k] = ...``), if any."""
    attr = _self_attr(target)
    if attr is not None and attr in decision_attrs:
        return attr
    if isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
        if attr is not None and attr in decision_attrs:
            return attr
    return None


def _param_names(record: FunctionRecord) -> list[str]:
    args = record.node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if names and names[0] == "self":
        names = names[1:]
    return names


def param_sink_summary(
    record: FunctionRecord, decision_attrs: set[str]
) -> frozenset[str]:
    """Parameters this method stores (possibly via locals) into decision
    state — one-level interprocedural summaries for helper setters."""
    sinking: set[str] = set()
    for name in _param_names(record):
        tainted = tainted_names(
            record.node, frozenset({name}), payload_is_source=False
        )
        for _node, _attr, values in _direct_sinks(record.node, decision_attrs):
            if any(
                _expr_tainted(value, tainted, payload_is_source=False)
                for value in values
            ):
                sinking.add(name)
                break
    return frozenset(sinking)


def _direct_sinks(
    method: ast.AST, decision_attrs: set[str]
) -> Iterator[tuple[ast.AST, str, list[ast.expr]]]:
    """Every store into decision state: ``(anchor node, attr, value exprs)``."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _decision_store_target(target, decision_attrs)
                if attr is not None:
                    yield node, attr, [node.value]
        elif isinstance(node, ast.AugAssign):
            attr = _decision_store_target(node.target, decision_attrs)
            if attr is not None:
                yield node, attr, [node.value]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                attr = _self_attr(node.func.value)
                if attr is not None and attr in decision_attrs:
                    yield node, attr, list(node.args) + [
                        kw.value for kw in node.keywords
                    ]


@register
class UnverifiedRelayRule(Rule):
    """BA008: tainted inbox payloads must not reach decision state."""

    rule_id = "BA008"
    summary = "decisions must not depend on unverified relayed payloads"

    def applies(self, file: SourceFile) -> bool:
        return file.protocol_code

    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        graph = protocol_graph(project)
        verifying = verifying_functions(project, graph)
        seen: set[tuple[int, int, str]] = set()
        for processor in graph.processor_classes:
            if processor.display != file.display:
                continue
            if not self._authenticated_context(graph, project, processor):
                continue
            decision_attrs = decision_attributes(graph, processor)
            if not decision_attrs:
                continue
            methods = graph.resolved_methods(processor)
            summaries = {
                qname: param_sink_summary(graph.functions[qname], decision_attrs)
                for qname in methods.values()
                if qname in graph.functions
            }
            for qname in sorted(methods.values()):
                record = graph.functions.get(qname)
                if record is None or record.file.display != file.display:
                    continue
                if qname in verifying:
                    continue
                yield from self._method_findings(
                    file, graph, record, decision_attrs, summaries,
                    verifying, seen,
                )

    def _method_findings(
        self,
        file: SourceFile,
        graph: ProtocolGraph,
        record: FunctionRecord,
        decision_attrs: set[str],
        summaries: dict[str, frozenset[str]],
        verifying: set[str],
        seen: set[tuple[int, int, str]],
    ) -> Iterator[Finding]:
        tainted = tainted_names(record.node, frozenset())
        for anchor, attr, values in _direct_sinks(record.node, decision_attrs):
            if any(_expr_tainted(value, tainted) for value in values):
                yield from self._emit(
                    file, anchor, seen,
                    f"unverified relayed payload flows into self.{attr}, "
                    f"which feeds {record.class_name}.decision(); verify "
                    f"the signature chain before storing",
                )
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if callee == "decide" and any(
                _expr_tainted(arg, tainted) for arg in node.args
            ):
                yield from self._emit(
                    file, node, seen,
                    "unverified relayed payload passed to decide(); verify "
                    "the signature chain first",
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and record.owner is not None
            ):
                resolved = graph.resolve_method(record.owner, func.attr)
                if resolved is None or resolved in verifying:
                    continue
                sinking = summaries.get(resolved, frozenset())
                if not sinking:
                    continue
                callee_record = graph.functions.get(resolved)
                if callee_record is None:
                    continue
                params = _param_names(callee_record)
                for position, arg in enumerate(node.args):
                    if position < len(params) and params[
                        position
                    ] in sinking and _expr_tainted(arg, tainted):
                        yield from self._emit(
                            file, node, seen,
                            f"unverified relayed payload passed to "
                            f"self.{func.attr}(), which stores it into "
                            f"decision state; verify before handing it on",
                        )
                        break

    def _emit(
        self,
        file: SourceFile,
        node: ast.AST,
        seen: set[tuple[int, int, str]],
        message: str,
    ) -> Iterator[Finding]:
        finding = file.finding(node, self.rule_id, message)
        key = (finding.line, finding.column, finding.message)
        if key not in seen:
            seen.add(key)
            yield finding

    def _authenticated_context(
        self, graph: ProtocolGraph, project: ProjectIndex, processor: ClassRecord
    ) -> bool:
        """Whether any algorithm using this processor is authenticated.

        Unauthenticated protocols (oral messages, phase king) have no
        signatures to check, so the taint discipline does not apply.
        Processors no known algorithm instantiates default to checked.
        """
        users = [
            record
            for record in project.algorithm_classes
            if processor in graph.instantiated_processors(record)
        ]
        if not users:
            return True
        for record in users:
            declared = project.resolve_class_attribute(record, "authenticated")
            if (
                isinstance(declared, ast.Constant)
                and isinstance(declared.value, bool)
            ):
                if declared.value:
                    return True
            else:
                # AgreementAlgorithm defaults to authenticated=True.
                return True
        return False
