"""A name-resolved call graph over every file the engine parsed.

The graph is deliberately modest: it resolves the call shapes that
actually occur in protocol code — ``self.method()`` through the static
base chain, ``ClassName.method(self, ...)`` delegation, and bare
module-level function calls (same module first, then a project-wide name
match; a ``ClassName(...)`` instantiation resolves to no function) — and
records every *unresolved* callee name so analyses can treat attribute
calls like ``chain.verify()`` as semantic markers without knowing the
receiver's type.

Built once per lint run and memoized on ``ProjectIndex.caches``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.engine import ClassRecord, ProjectIndex, SourceFile

_CACHE_KEY = "protocol-call-graph"

#: The root class of the processor hierarchy (``core/protocol.py``).
PROCESSOR_BASE = "Processor"


@dataclass(slots=True)
class FunctionRecord:
    """One function or method definition, addressable by qualified name."""

    qname: str
    name: str
    #: The class whose body defines it; ``None`` for a module-level function.
    owner: ClassRecord | None
    file: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def class_name(self) -> str | None:
        """The owning class's name, if any."""
        return self.owner.name if self.owner is not None else None


@dataclass(slots=True)
class CallSummary:
    """What one function calls: resolved edges plus raw callee names."""

    #: qnames of statically-resolved callees.
    resolved: set[str] = field(default_factory=set)
    #: every callee name seen (attribute or bare), resolved or not.
    names: set[str] = field(default_factory=set)


@dataclass(slots=True)
class ProtocolGraph:
    """Functions, call edges, and the processor-class hierarchy."""

    project: ProjectIndex
    functions: dict[str, FunctionRecord] = field(default_factory=dict)
    calls: dict[str, CallSummary] = field(default_factory=dict)
    #: class record -> methods defined in its own body (name -> qname).
    own_methods: dict[ClassRecord, dict[str, str]] = field(default_factory=dict)
    #: module display -> module-level functions (name -> qname).
    module_functions: dict[str, dict[str, str]] = field(default_factory=dict)
    #: bare name -> every module-level function qname with that name.
    by_name: dict[str, list[str]] = field(default_factory=dict)
    #: transitive ``Processor`` subclasses (the root itself excluded), in
    #: index order.
    processor_classes: list[ClassRecord] = field(default_factory=list)

    # -- resolution ----------------------------------------------------

    def resolve_method(self, owner: ClassRecord, method: str) -> str | None:
        """Find *method* on *owner* or its statically-known bases."""
        for _, record in self.project.lineage(owner):
            qname = self.own_methods.get(record, {}).get(method)
            if qname is not None:
                return qname
        return None

    def resolved_methods(self, owner: ClassRecord) -> dict[str, str]:
        """Every method visible on *owner* (nearest definition wins)."""
        methods: dict[str, str] = {}
        for _, record in self.project.lineage(owner):
            for method, qname in self.own_methods.get(record, {}).items():
                methods.setdefault(method, qname)
        return methods

    def instantiated_processors(self, algorithm: ClassRecord) -> set[ClassRecord]:
        """Processor classes the *algorithm* class constructs by name, each
        name resolved in the algorithm's file."""
        found = set()
        for node in ast.walk(algorithm.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                record = self.project.resolve(node.func.id, algorithm.display)
                if record in self.processor_classes:
                    found.add(record)
        return found

    # -- closures ------------------------------------------------------

    def reachable_from(self, seeds: Iterable[str]) -> set[str]:
        """Transitive closure of the resolved call edges."""
        reached: set[str] = set()
        queue = [q for q in seeds if q in self.functions]
        while queue:
            current = queue.pop()
            if current in reached:
                continue
            reached.add(current)
            summary = self.calls.get(current)
            if summary is not None:
                queue.extend(q for q in summary.resolved if q not in reached)
        return reached

    def functions_calling(self, markers: frozenset[str]) -> set[str]:
        """Functions that (transitively) call anything named in *markers*.

        Used for the "verifying" closure: a method that somewhere invokes
        ``...verify(...)`` or ``...is_input_edge(...)`` — directly or via
        a helper — counts as a verification step.
        """
        marked = {
            qname
            for qname, summary in self.calls.items()
            if summary.names & markers
        }
        changed = True
        while changed:
            changed = False
            for qname, summary in self.calls.items():
                if qname in marked:
                    continue
                if summary.resolved & marked:
                    marked.add(qname)
                    changed = True
        return marked


def _function_defs(
    file: SourceFile,
) -> Iterable[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Every function definition in *file* with its owning class."""

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> Iterable:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                # nested defs stay attributed to the same class scope.
                yield from visit(child, owner)
            else:
                yield from visit(child, owner)

    yield from visit(file.tree, None)


def _extract_calls(graph: ProtocolGraph, record: FunctionRecord) -> CallSummary:
    summary = CallSummary()
    module = graph.module_functions.get(record.file.display, {})
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            summary.names.add(func.id)
            if func.id in graph.project.classes:
                continue  # ``ClassName(...)`` constructs: no function to resolve.
            if func.id in module:
                summary.resolved.add(module[func.id])
            else:
                summary.resolved.update(graph.by_name.get(func.id, ()))
        elif isinstance(func, ast.Attribute):
            summary.names.add(func.attr)
            value = func.value
            if not isinstance(value, ast.Name):
                continue
            if value.id == "self":
                owner = record.owner
            else:
                # ClassName.method(self, ...) delegation.
                owner = graph.project.resolve(value.id, record.file.display)
            if owner is not None:
                resolved = graph.resolve_method(owner, func.attr)
                if resolved is not None:
                    summary.resolved.add(resolved)
    return summary


def build_graph(project: ProjectIndex) -> ProtocolGraph:
    """Build the call graph over ``project.files`` (no memoization)."""
    graph = ProtocolGraph(project=project)
    owners = {record.node: record for record in project.records}
    for file in project.files:
        for node, class_node in _function_defs(file):
            owner = owners.get(class_node) if class_node is not None else None
            scope = f"{class_node.name}." if class_node is not None else ""
            qname = f"{file.display}::{scope}{node.name}"
            record = FunctionRecord(
                qname=qname,
                name=node.name,
                owner=owner,
                file=file,
                node=node,
            )
            graph.functions[qname] = record
            if class_node is None:
                graph.module_functions.setdefault(file.display, {})[
                    node.name
                ] = qname
                graph.by_name.setdefault(node.name, []).append(qname)
            elif owner is not None:
                graph.own_methods.setdefault(owner, {})[node.name] = qname
    graph.processor_classes = project.subclasses(PROCESSOR_BASE)
    for record in graph.functions.values():
        graph.calls[record.qname] = _extract_calls(graph, record)
    return graph


def protocol_graph(project: ProjectIndex) -> ProtocolGraph:
    """The memoized per-run call graph."""
    cached = project.caches.get(_CACHE_KEY)
    if not isinstance(cached, ProtocolGraph):
        cached = build_graph(project)
        project.caches[_CACHE_KEY] = cached
    return cached
