"""The program imports only the standard library.

``pyproject.toml`` declares no runtime dependency (``dependencies = []``),
so every absolute import under ``src/repro`` must name ``repro`` itself or
a standard-library module; anything else would make what runs depend on
what happens to be installed.
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
