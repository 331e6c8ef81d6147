"""Lint engine: file collection, parsing, rule dispatch, suppression.

The engine is deliberately independent of the rules it runs: rules register
themselves via :func:`register` (the modules in :mod:`repro.lint.rules` do
so on import) and receive parsed :class:`SourceFile` objects plus a
cross-file :class:`ProjectIndex`.  Findings carry a rule id and a
``file:line:column`` location; ``# noqa`` / ``# noqa: BA001`` trailing
comments suppress them line by line.
"""

from __future__ import annotations

import abc
import ast
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

#: Rule id used for files that do not parse at all.
PARSE_RULE_ID = "BA000"

#: Rule id for ``# noqa: BA00x`` comments that suppress nothing.
UNUSED_SUPPRESSION_RULE_ID = "BA100"

_NOQA_PATTERN = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*))?",
    re.IGNORECASE,
)

#: Suppression codes owned by this linter; foreign codes (``F401`` …) are
#: left alone by the unused-suppression check.
_OWN_CODE_PATTERN = re.compile(r"^BA\d+$")


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    severity: str = "error"

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass(frozen=True, slots=True)
class Suppression:
    """One ``# noqa`` comment: the codes it names and where it starts."""

    #: Normalized (upper-case) rule ids, or ``None`` for a blanket ``# noqa``.
    codes: frozenset[str] | None
    column: int


@dataclass(slots=True)
class SourceFile:
    """A parsed source file plus the context rules need to scope checks."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    #: line -> the suppression comment found on that line.
    suppressions: dict[int, Suppression]
    #: child AST node -> parent, for enclosing-context checks.
    parents: dict[ast.AST, ast.AST]

    @property
    def in_algorithms(self) -> bool:
        return "algorithms" in self.path.parts

    @property
    def in_crypto(self) -> bool:
        return "crypto" in self.path.parts

    @property
    def in_approx(self) -> bool:
        return "approx" in self.path.parts

    @property
    def is_core_protocol(self) -> bool:
        return self.path.name == "protocol.py" and self.path.parent.name == "core"

    @property
    def protocol_code(self) -> bool:
        """True for the files the determinism discipline applies to:
        ``algorithms/``, ``approx/``, ``core/protocol.py`` and ``crypto/``.

        The approximate/randomized workloads are held to the same standard:
        their only entropy is the seeded
        :class:`~repro.approx.coins.CoinSource`, never ``random``/``time``.
        """
        return (
            self.in_algorithms
            or self.in_approx
            or self.in_crypto
            or self.is_core_protocol
        )

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.display,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        entry = self.suppressions.get(finding.line)
        if entry is None:
            return False
        # Codes are normalized to upper case on both sides so a lower-case
        # suppression code (ba003) works the same as its canonical form.
        return entry.codes is None or finding.rule.upper() in entry.codes


@dataclass(frozen=True, slots=True, eq=False)
class ClassRecord:
    """A class definition as seen by the cross-file index.

    Records compare and hash by identity: two definitions may share a
    name, and each keeps its own methods.
    """

    name: str
    display: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    #: simple ``name = value`` / annotated assignments in the class body.
    attributes: dict[str, ast.expr]


@dataclass(slots=True)
class ProjectIndex:
    """Cross-file facts: every class definition, and which of them are
    (transitively) ``AgreementAlgorithm`` subclasses."""

    #: Every class definition, in file order; two classes may share a name.
    records: list[ClassRecord] = field(default_factory=list)
    #: class name -> its last definition anywhere.
    classes: dict[str, ClassRecord] = field(default_factory=dict)
    #: (file display, class name) -> that file's last definition of it.
    local_classes: dict[tuple[str, str], ClassRecord] = field(default_factory=dict)
    algorithm_classes: list[ClassRecord] = field(default_factory=list)
    #: Every parsed file of the run, for whole-program analyses.
    files: list[SourceFile] = field(default_factory=list)
    #: Memoized per-run artifacts (e.g. the protocol call graph) keyed by
    #: analysis name, so expensive whole-program passes build them once.
    caches: dict[str, object] = field(default_factory=dict)

    def resolve(self, name: str, display: str) -> ClassRecord | None:
        """The class *name* means in the file *display*: that file's own
        definition, else the last definition anywhere."""
        return self.local_classes.get((display, name)) or self.classes.get(name)

    def lineage(self, start: ClassRecord) -> Iterator[tuple[str, ClassRecord | None]]:
        """A class's name and record, then its statically-known bases',
        breadth-first, each name once.

        A base name resolves (:meth:`resolve`) in the file of the class
        that names it.  A base outside the index comes with ``None`` and
        is not followed, so the nearest definition comes first and a
        cycle ends.
        """
        queue: list[tuple[str, ClassRecord | None]] = [(start.name, start)]
        seen = {start.name}
        for current, record in queue:  # the loop reaches what it appends
            yield current, record
            if record is None:
                continue
            for base in record.bases:
                if base not in seen:
                    seen.add(base)
                    queue.append((base, self.resolve(base, record.display)))

    def subclasses(self, root: str) -> list[ClassRecord]:
        """The class definitions with *root* in their lineage, after themselves."""

        def descends(record: ClassRecord) -> bool:
            bases = itertools.islice(self.lineage(record), 1, None)
            return any(name == root for name, _ in bases)

        return [record for record in self.records if descends(record)]

    def resolve_class_attribute(
        self, record: ClassRecord, attribute: str
    ) -> ast.expr | None:
        """Look *attribute* up in *record*, then along its statically-known
        base chain."""
        for _, found in self.lineage(record):
            if found is not None and attribute in found.attributes:
                return found.attributes[attribute]
        return None


class Rule(abc.ABC):
    """One lint rule.  Subclasses set ``rule_id``/``summary`` and implement
    :meth:`check`; registration happens via the :func:`register` decorator."""

    rule_id: ClassVar[str]
    summary: ClassVar[str]

    def applies(self, file: SourceFile) -> bool:
        """Whether this rule runs on *file* at all (default: every file)."""
        return True

    @abc.abstractmethod
    def check(self, file: SourceFile, project: ProjectIndex) -> Iterator[Finding]:
        """Yield findings for *file*."""


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> dict[str, type[Rule]]:
    """The registered rules, importing the built-in set on first use."""
    import repro.lint.rules  # noqa: F401  (registers on import)

    return dict(_REGISTRY)


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_checked: int
    rules_run: list[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _collect_files(paths: Sequence[Path | str]) -> list[tuple[Path, str]]:
    """Expand *paths* into a sorted, de-duplicated list of python files."""
    collected: dict[Path, str] = {}
    for raw in paths:
        given = Path(raw)
        if given.is_dir():
            for found in sorted(given.rglob("*.py")):
                collected.setdefault(found.resolve(), str(found))
        elif given.suffix == ".py":
            collected.setdefault(given.resolve(), str(given))
    return sorted(collected.items(), key=lambda item: item[1])


def _scan_suppressions(source: str) -> dict[int, Suppression]:
    suppressions: dict[int, Suppression] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(line)
        if not match:
            continue
        codes = match.group("codes")
        parsed = (
            None
            if codes is None
            else frozenset(code.strip().upper() for code in codes.split(","))
        )
        suppressions[lineno] = Suppression(codes=parsed, column=match.start() + 1)
    return suppressions


def _build_parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _base_names(node: ast.ClassDef) -> tuple[str, ...]:
    names: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _class_attributes(node: ast.ClassDef) -> dict[str, ast.expr]:
    attributes: dict[str, ast.expr] = {}
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    attributes[target.id] = statement.value
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name) and statement.value is not None:
                attributes[statement.target.id] = statement.value
    return attributes


def _build_index(files: Iterable[SourceFile]) -> ProjectIndex:
    index = ProjectIndex()
    for file in files:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                record = ClassRecord(
                    name=node.name,
                    display=file.display,
                    node=node,
                    bases=_base_names(node),
                    attributes=_class_attributes(node),
                )
                index.records.append(record)
                index.classes[node.name] = record
                index.local_classes[file.display, node.name] = record
    index.algorithm_classes = index.subclasses("AgreementAlgorithm")
    return index


class LintEngine:
    """Collect files, parse them, run every applicable rule."""

    def __init__(self, rules: Sequence[type[Rule]] | None = None) -> None:
        if rules is None:
            rules = list(all_rules().values())
        self.rules = [rule_class() for rule_class in rules]

    def run(self, paths: Sequence[Path | str]) -> LintReport:
        findings: list[Finding] = []
        sources: list[SourceFile] = []
        for path, display in _collect_files(paths):
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as error:
                line = getattr(error, "lineno", 1) or 1
                findings.append(
                    Finding(
                        path=display,
                        line=line,
                        column=1,
                        rule=PARSE_RULE_ID,
                        message=f"file does not parse: {error}",
                    )
                )
                continue
            sources.append(
                SourceFile(
                    path=path,
                    display=display,
                    source=source,
                    tree=tree,
                    suppressions=_scan_suppressions(source),
                    parents=_build_parents(tree),
                )
            )
        project = _build_index(sources)
        project.files = list(sources)
        ran = frozenset(rule.rule_id.upper() for rule in self.rules)
        for file in sources:
            used: dict[int, set[str]] = {}
            for rule in self.rules:
                if not rule.applies(file):
                    continue
                for finding in rule.check(file, project):
                    if file.suppressed(finding):
                        used.setdefault(finding.line, set()).add(
                            finding.rule.upper()
                        )
                    else:
                        findings.append(finding)
            findings.extend(
                notice
                for notice in self._unused_suppressions(file, used, ran)
                if not file.suppressed(notice)
            )
        return LintReport(
            findings=sorted(findings),
            files_checked=len(sources),
            rules_run=sorted(rule.rule_id for rule in self.rules),
        )

    def _unused_suppressions(
        self,
        file: SourceFile,
        used: dict[int, set[str]],
        ran: frozenset[str],
    ) -> Iterator[Finding]:
        """BA100 notices for ``# noqa: BA00x`` comments that suppressed
        nothing.  Blanket ``# noqa`` comments and foreign codes (``F401``,
        ``S307`` …) are left alone, and a code only counts as stale when
        its rule actually ran."""
        for line, entry in sorted(file.suppressions.items()):
            if entry.codes is None:
                continue
            stale = sorted(
                code
                for code in entry.codes
                if _OWN_CODE_PATTERN.match(code)
                and code in ran
                and code not in used.get(line, set())
            )
            if stale:
                yield Finding(
                    path=file.display,
                    line=line,
                    column=entry.column,
                    rule=UNUSED_SUPPRESSION_RULE_ID,
                    message=(
                        f"unused suppression: no {', '.join(stale)} finding "
                        f"on this line; remove the stale '# noqa' code"
                    ),
                    severity="note",
                )


def lint_paths(
    paths: Sequence[Path | str], rules: Sequence[type[Rule]] | None = None
) -> LintReport:
    """Convenience wrapper: lint *paths* with the given (or all) rules."""
    return LintEngine(rules).run(paths)
