"""Every processor is bound one way: ``AgreementAlgorithm.spawn`` builds the
top-level context, and a composite derives its inner protocols' contexts
from its own with ``dataclasses.replace``."""

import ast
from pathlib import Path

import pytest

from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.interactive import InteractiveConsistency
from repro.algorithms.multivalued import MultivaluedAgreement
from repro.algorithms.registry import get
from repro.approx.coins import CoinSource
from repro.core.runner import run

SOURCE = Path(__file__).parents[2] / "src" / "repro"

COMPOSITES = {
    "algorithm-3": (lambda: get("algorithm-3")(7, 2, s=2), 1),
    "algorithm-5": (lambda: get("algorithm-5")(10, 1), 1),
    "active-set": (lambda: get("active-set")(8, 2), 1),
    "informed-algorithm-2": (lambda: get("informed-algorithm-2")(7, 2), 1),
    "multivalued": (
        lambda: MultivaluedAgreement(5, 1, width=2, inner_factory=DolevStrong),
        2,
    ),
    "interactive": (
        lambda: InteractiveConsistency(
            5, 1, values=["a", "b", "c", "d", "e"], inner_factory=DolevStrong
        ),
        "a",
    ),
}


def inner_processors(processor):
    """The protocols *processor* bound directly: its ``inner`` and ``copies``."""
    inner = getattr(processor, "inner", None)
    return ([inner] if inner is not None else []) + list(getattr(processor, "copies", ()))


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_inner_processors_keep_the_outer_context(name):
    build, value = COMPOSITES[name]
    coins = CoinSource(1)
    result = run(build(), value, coins=coins)
    pairs = [
        (outer, inner)
        for outer in result.processors.values()
        for inner in inner_processors(outer)
    ]
    assert pairs
    for outer, inner in pairs:
        assert inner.ctx.coins is coins
        assert inner.ctx.coins is outer.ctx.coins
        if name != "interactive":  # rotated instances sign with their own keys
            assert inner.ctx.key is outer.ctx.key
            assert inner.ctx.service is outer.ctx.service


def context_calls() -> list[str]:
    """The file of every call of ``Context`` (by name or attribute) in the
    program."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Context":
                    found.append(path.relative_to(SOURCE).as_posix())
    return found


def test_contexts_are_built_only_by_spawn():
    assert context_calls() == ["core/protocol.py"]
