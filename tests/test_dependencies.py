"""The program imports only the standard library, and the core nothing
above it from ``approx``.

``pyproject.toml`` declares no runtime dependency (``dependencies = []``),
so every absolute import under ``src/repro`` must name ``repro`` itself or
a standard-library module; anything else would make what runs depend on
what happens to be installed.

Each algorithm family states its own conditions and coins, so the
simulator core (``src/repro/core``) needs nothing from the ``approx``
family at run time; an import only a type checker follows is allowed.
"""

import ast
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

