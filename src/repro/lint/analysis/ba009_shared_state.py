"""BA009: no shared-state mutation reachable from sweep worker entries.

The parallel executor (:mod:`repro.analysis.parallel`) fans tasks out
to a pool of worker processes, and both sweeps and the service run
their stripes on that pool.  Its correctness — and the trustworthiness
of every message/signature count a sweep or the service reports —
assumes tasks are *pure*: a task may build its own processors and
runners, but must never write state visible to another task.  A
``global`` statement or a ``SomeClass.attr = ...`` class-attribute store
anywhere in code reachable from the worker entry points is exactly the
hazard that makes a result depend on which worker ran which stripe, and
on what that worker ran before.

Reachability starts from every function defined in a ``parallel.py``
module.  Because the worker dispatch is duck-typed (``task.run()``), an
unresolved ``run`` callee bridges to every method named ``run`` in the
project — a deliberate over-approximation: anything that *could* be a
task body is held to the discipline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis.callgraph import ProtocolGraph, protocol_graph
from repro.lint.engine import Finding, ProjectIndex, Rule, SourceFile, register

#: Files whose functions are worker entry points.
WORKER_FILE_NAME = "parallel.py"

#: Duck-typed dispatch names bridged to every same-named method.
BRIDGE_METHODS = frozenset({"run"})

_REACHABLE_CACHE_KEY = "ba009-worker-reachable"


def worker_reachable(project: ProjectIndex, graph: ProtocolGraph) -> set[str]:
    """Functions reachable from the sweep worker entry points."""
    cached = project.caches.get(_REACHABLE_CACHE_KEY)
    if isinstance(cached, set):
        return cached
    entries = {
        qname
        for qname, record in graph.functions.items()
        if record.file.path.name == WORKER_FILE_NAME
    }
    reached = graph.reachable_from(entries)
    changed = True
    while changed:
        changed = False
        bridged = {
            name
            for qname in reached
            for name in graph.calls[qname].names & BRIDGE_METHODS
        }
        if bridged:
            for qname, record in graph.functions.items():
                if (
                    record.class_name is not None
                    and record.name in bridged
                    and qname not in reached
                ):
                    reached |= graph.reachable_from({qname})
                    changed = True
    project.caches[_REACHABLE_CACHE_KEY] = reached
    return reached


@register
class SharedStateRule(Rule):
    """BA009: sweep-worker-reachable code must not mutate shared state."""

    rule_id = "BA009"
    summary = "no shared-state mutation reachable from sweep workers"

    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        graph = protocol_graph(project)
        reached = worker_reachable(project, graph)
        seen: set[tuple[int, int]] = set()
        for qname in sorted(reached):
            record = graph.functions[qname]
            if record.file.display != file.display:
                continue
            for node in ast.walk(record.node):
                if isinstance(node, ast.Global):
                    yield from self._emit(
                        file, node, seen,
                        f"'global {', '.join(node.names)}' in "
                        f"{record.name}() is reachable from the parallel "
                        f"sweep workers (analysis/parallel.py); workers "
                        f"must not mutate module state",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        owner = self._class_attribute_owner(target, project)
                        if owner is not None:
                            yield from self._emit(
                                file, node, seen,
                                f"assignment to class attribute "
                                f"{owner}.{target.attr} in {record.name}() "  # type: ignore[union-attr]
                                f"is reachable from the parallel sweep "
                                f"workers; class attributes are shared "
                                f"across tasks",
                            )

    def _class_attribute_owner(
        self, target: ast.expr, project: ProjectIndex
    ) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in project.classes
        ):
            return target.value.id
        return None

    def _emit(
        self,
        file: SourceFile,
        node: ast.AST,
        seen: set[tuple[int, int]],
        message: str,
    ) -> Iterator[Finding]:
        finding = file.finding(node, self.rule_id, message)
        key = (finding.line, finding.column)
        if key not in seen:
            seen.add(key)
            yield finding
