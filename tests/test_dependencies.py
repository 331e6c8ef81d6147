"""The program imports only the standard library, the core nothing from
``approx``, and every name from the module that defines it.

``pyproject.toml`` declares no runtime dependency (``dependencies = []``),
so every absolute import under ``src/repro`` must name ``repro`` itself or
a standard-library module; anything else would make what runs depend on
what happens to be installed.

Each algorithm family states its own conditions and coins, so the
simulator core (``src/repro/core``) needs nothing from the ``approx``
family at run time; an import only a type checker follows is allowed.

Each name has one import path: the module that defines it.  ``repro``
itself is the public API and the one package that re-exports; every
other ``__init__.py`` but the rule registry's holds only its docstring.
"""

import ast
import functools
import sys
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "repro"


def third_party_imports() -> list[str]:
    """``"module in file"`` for every absolute import of a third-party module."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.append(f"{module} in {path.relative_to(SOURCE.parent)}")
    return found


def test_the_program_imports_only_the_standard_library():
    assert SOURCE.is_dir()
    assert third_party_imports() == []


def runtime_imports(tree: ast.AST) -> list[str]:
    """Every module *tree* imports absolutely, outside ``if TYPE_CHECKING:``."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_the_core_imports_nothing_from_approx_at_runtime():
    core = SOURCE / "core"
    found = [
        f"{module} in {path.relative_to(SOURCE.parent)}"
        for path in sorted(core.glob("*.py"))
        for module in runtime_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module == "repro.approx" or module.startswith("repro.approx.")
    ]
    assert core.is_dir()
    assert found == []



ROOT = SOURCE.parents[1]

#: The ``__init__.py`` files that import: ``repro``'s is the public API,
#: and ``repro.lint.rules``' registers the rules.
IMPORTING_PACKAGES = {SOURCE / "__init__.py", SOURCE / "lint" / "rules" / "__init__.py"}


def test_sub_packages_hold_only_their_docstring():
    found = [
        str(path.relative_to(ROOT))
        for path in sorted(SOURCE.rglob("__init__.py"))
        if path not in IMPORTING_PACKAGES
        and len(ast.parse(path.read_text(encoding="utf-8")).body) > 1
    ]
    assert found == []


def module_path(module: str) -> Path | None:
    """The source file of the ``repro`` module *module*, if there is one."""
    base = SOURCE.parent.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


@functools.cache
def defined_names(module: str) -> frozenset[str]:
    """What *module* binds at module level with a ``def``, a ``class`` or
    an assignment (an import binds nothing here)."""
    path = module_path(module)
    if path is None:
        return frozenset()
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return frozenset(names)


def forwarded_imports() -> list[str]:
    """``"module.name in file:line"`` for every ``from repro.M import name``
    where ``M`` neither defines ``name`` nor has it as a submodule."""
    found = []
    fixtures = ROOT / "tests" / "lint" / "fixtures"
    for top in ("src", "tests", "scripts", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if fixtures in path.parents:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and (node.module or "").startswith("repro.")
                ):
                    continue
                found.extend(
                    f"{node.module}.{alias.name} in {path.relative_to(ROOT)}:{node.lineno}"
                    for alias in node.names
                    if alias.name not in defined_names(node.module)
                    and module_path(f"{node.module}.{alias.name}") is None
                )
    return found


def test_each_name_is_imported_from_the_module_that_defines_it():
    # ``from repro import ...`` is exempt: ``repro`` is the public facade.
    assert forwarded_imports() == []
