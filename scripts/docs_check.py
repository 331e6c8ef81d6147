#!/usr/bin/env python
"""Documentation gate: links resolve, examples parse, commands run.

Checks, in order:

1. **Relative links** — every ``[text](target)`` in ``README.md`` and
   ``docs/*.md`` that is not an absolute URL or a pure ``#fragment``
   must point at an existing file (anchors on existing files are
   accepted; the anchor itself is not resolved).
2. **Fenced JSON** — every ```` ```json ```` block in the checked files
   must parse.
3. **Worked examples** — the ``$ repro ...`` lines inside
   ```` ```console ```` blocks of every doc in ``COMMAND_DOCS``
   (``docs/telemetry.md``, ``docs/service.md``) are executed in order,
   one shared temporary directory per doc (as
   ``PYTHONPATH=src python -m repro ...``); each must exit 0.  Later
   commands may consume files written by earlier ones, mirroring how a
   reader would type them.
4. **Schema pins** — ``docs/telemetry.md`` must mention the current
   ``TRACE_SCHEMA`` string and ``docs/service.md`` the current
   ``SERVICE_SCHEMA`` string, so a schema bump cannot leave the docs
   describing a format the code no longer writes.
5. **Code names** — in the checked files and ``DESIGN.md``, every
   backticked dotted name that starts with ``repro.`` must resolve (its
   longest importable module prefix, then the remaining attributes), and
   every backticked ``*.py`` path must exist under the repo root,
   ``src/`` or ``src/repro/``; a bare file name may exist anywhere in the
   tree.  So a deletion cannot leave a doc naming the code it removed.

Run via ``make docs-check`` (wired into ``scripts/check.sh``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
#: Docs whose ``$ repro ...`` console examples are executed, each with
#: the module attribute its text must pin (``None``: no schema pin).
COMMAND_DOCS: list[tuple[Path, str | None]] = [
    (REPO / "docs" / "telemetry.md", "TRACE_SCHEMA"),
    (REPO / "docs" / "service.md", "SERVICE_SCHEMA"),
]

#: Docs whose backticked code names must resolve (check 5).
NAME_DOCS = [*DOC_FILES, REPO / "DESIGN.md"]

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^```(\w*)\s*$")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
DOTTED_NAME = re.compile(r"repro(?:\.\w+)+")
PY_PATH = re.compile(r"[\w./-]+\.py")


def iter_fences(text: str):
    """Yield ``(language, body)`` for every fenced block in *text*."""
    language = None
    body: list[str] = []
    for line in text.splitlines():
        match = FENCE.match(line)
        if match and language is None:
            language = match.group(1)
            body = []
        elif line.strip() == "```" and language is not None:
            yield language, "\n".join(body)
            language = None
        elif language is not None:
            body.append(line)


def strip_fenced_code(text: str) -> str:
    """Remove fenced blocks so code snippets cannot fake markdown links."""
    out: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if FENCE.match(line) and not in_fence:
            in_fence = True
        elif line.strip() == "```" and in_fence:
            in_fence = False
        elif not in_fence:
            out.append(line)
    return "\n".join(out)


def check_links(path: Path, errors: list[str]) -> None:
    text = strip_fenced_code(path.read_text(encoding="utf-8"))
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        file_part = target.split("#", 1)[0]
        if not (path.parent / file_part).exists():
            errors.append(f"{path.relative_to(REPO)}: broken link -> {target}")


def check_json_fences(path: Path, errors: list[str]) -> None:
    for language, body in iter_fences(path.read_text(encoding="utf-8")):
        if language != "json" or not body.strip():
            continue
        try:
            json.loads(body)
        except ValueError as error:
            errors.append(
                f"{path.relative_to(REPO)}: unparseable json fence ({error})"
            )


def doc_commands(path: Path) -> list[list[str]]:
    """The ``$ repro ...`` lines from the console fences, in order."""
    commands: list[list[str]] = []
    for language, body in iter_fences(path.read_text(encoding="utf-8")):
        if language != "console":
            continue
        for line in body.splitlines():
            line = line.strip()
            if line.startswith("$ repro "):
                commands.append(shlex.split(line[len("$ repro ") :]))
    return commands


def run_doc_commands(path: Path, errors: list[str]) -> int:
    commands = doc_commands(path)
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as workdir:
        for arguments in commands:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", *arguments],
                cwd=workdir,
                env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
            )
            if completed.returncode != 0:
                errors.append(
                    f"{path.relative_to(REPO)}: `repro "
                    f"{' '.join(arguments)}` exited "
                    f"{completed.returncode}:\n{completed.stderr.strip()}"
                )
    return len(commands)


def check_schema_pin(path: Path, attribute: str, errors: list[str]) -> None:
    """Fail unless *path* mentions the current value of ``repro.<attribute>``."""
    sys.path.insert(0, str(REPO / "src"))
    try:
        from repro.obs.events import TRACE_SCHEMA
        from repro.service.request import SERVICE_SCHEMA
    finally:
        sys.path.remove(str(REPO / "src"))
    schema = {"TRACE_SCHEMA": TRACE_SCHEMA, "SERVICE_SCHEMA": SERVICE_SCHEMA}[
        attribute
    ]
    if schema not in path.read_text(encoding="utf-8"):
        errors.append(
            f"{path.relative_to(REPO)}: does not mention the current "
            f"{attribute.split('_')[0].lower()} schema {schema!r}"
        )


def resolves(name: str) -> bool:
    """Whether the dotted *name* exists: import its longest importable
    module prefix, then read the remaining attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@functools.cache
def py_file_names() -> frozenset[str]:
    """The name of every ``.py`` file in the repo."""
    return frozenset(path.name for path in REPO.rglob("*.py"))


def py_path_exists(path: str) -> bool:
    """Whether *path* exists under the repo root, ``src/`` or
    ``src/repro/``, or, as a bare file name, anywhere in the repo."""
    if "/" not in path:
        return path in py_file_names()
    return any((base / path).exists() for base in (REPO, REPO / "src", REPO / "src" / "repro"))


def check_code_names(path: Path, errors: list[str]) -> int:
    """Fail on each backticked ``repro.`` name in *path* that does not
    resolve and each backticked ``.py`` path that does not exist; return
    how many distinct names and paths were checked."""
    text = strip_fenced_code(path.read_text(encoding="utf-8"))
    checked = 0
    sys.path.insert(0, str(REPO / "src"))
    try:
        for span in sorted(set(CODE_SPAN.findall(text))):
            if DOTTED_NAME.fullmatch(span):
                found = resolves(span)
            elif PY_PATH.fullmatch(span):
                found = py_path_exists(span)
            else:
                continue
            checked += 1
            if not found:
                errors.append(
                    f"{os.path.relpath(path, REPO)}: `{span}` names code that does not exist"
                )
    finally:
        sys.path.remove(str(REPO / "src"))
    return checked


def main() -> int:
    errors: list[str] = []
    for path in DOC_FILES:
        check_links(path, errors)
        check_json_fences(path, errors)
    names = sum(check_code_names(path, errors) for path in NAME_DOCS)
    executed = 0
    for path, pin in COMMAND_DOCS:
        if not path.exists():
            errors.append(f"{path.relative_to(REPO)}: command doc is missing")
            continue
        executed += run_doc_commands(path, errors)
        if pin is not None:
            check_schema_pin(path, pin, errors)
    files = ", ".join(str(p.relative_to(REPO)) for p in DOC_FILES)
    print(f"docs-check: {len(DOC_FILES)} files ({files}); "
          f"{names} code names checked in them and DESIGN.md; "
          f"{executed} documented commands executed")
    if errors:
        for error in errors:
            print(f"docs-check: {error}", file=sys.stderr)
        return 1
    print("docs-check: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
