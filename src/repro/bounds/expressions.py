"""Declared-bound expressions: a tiny, safe arithmetic language.

Every concrete :class:`~repro.core.protocol.AgreementAlgorithm` declares its
paper budgets (``phase_bound``, ``message_bound`` and — when authenticated —
``signature_bound``) as *expression strings* over its system parameters,
evaluated in the namespace of :mod:`repro.bounds.formulas`.  Keeping the
declarations textual makes them statically checkable: the ``repro lint``
rule BA002 parses them without importing the algorithm module and
cross-checks them against the paper's closed forms.

The language is deliberately small: integer arithmetic, the parameter names
the algorithm instance actually has (``n``, ``t``, ``s``, ``m``, ``alpha``,
``width``), and calls to the public functions of
:mod:`repro.bounds.formulas`.  Anything else is rejected at parse time.

Two sentinels opt out of evaluation while keeping the declaration explicit:

* :data:`DERIVED` — the bound is computed at runtime from component
  algorithms (wrappers like interactive consistency override the
  ``upper_bound_*`` method);
* :data:`UNSTATED` — the paper states no closed form for this budget.
"""

from __future__ import annotations

import ast
import functools
import math
from fractions import Fraction
from types import CodeType
from typing import Callable, Final, Mapping

from repro.bounds import formulas

__all__ = [
    "DERIVED",
    "UNSTATED",
    "SENTINELS",
    "PARAMETER_NAMES",
    "SAMPLE_GRID",
    "BoundExpressionError",
    "formula_namespace",
    "validate_bound_expression",
    "evaluate_bound",
    "evaluate_rate",
]

#: Declares that the bound is derived at runtime from component algorithms.
DERIVED: Final[str] = "derived"
#: Declares that the paper states no closed form for this budget.
UNSTATED: Final[str] = "unstated"
#: The declarations that are explicit opt-outs rather than expressions.
SENTINELS: Final[frozenset[str]] = frozenset({DERIVED, UNSTATED})

#: Parameter names a bound expression may reference.  Each algorithm
#: instance supplies the subset it actually has (see
#: :meth:`~repro.core.protocol.AgreementAlgorithm.bound_parameters`).
PARAMETER_NAMES: Final[frozenset[str]] = frozenset(
    {"n", "t", "s", "m", "alpha", "width"}
)

#: Sample parameter points at which declared bounds are compared against
#: canonical forms (lint rule BA002) and against static fan-out estimates
#: (BA006/BA007).  ``n > 3t`` keeps every formula in its domain; ``s = t``
#: and ``m = t + 1`` match how the algorithms instantiate those knobs.
SAMPLE_GRID: Final[tuple[Mapping[str, int], ...]] = tuple(
    {"n": 3 * t + 2, "t": t, "s": t, "m": t + 1, "alpha": t + 1, "width": t + 1}
    for t in (1, 2, 3, 4)
)

_ALLOWED_OPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
)


class BoundExpressionError(ValueError):
    """A declared bound is not a valid expression of the bound language."""


def formula_namespace() -> dict[str, Callable[..., object]]:
    """The public functions of :mod:`repro.bounds.formulas`, by name."""
    return {
        name: func
        for name, func in vars(formulas).items()
        if callable(func) and not name.startswith("_")
    }


def validate_bound_expression(expression: str) -> ast.Expression:
    """Parse *expression* and verify it stays inside the bound language.

    Returns the parsed tree; raises :class:`BoundExpressionError` when the
    expression uses anything beyond integer arithmetic, the allowed
    parameter names, and calls to :mod:`repro.bounds.formulas` functions.
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as error:
        raise BoundExpressionError(
            f"bound expression {expression!r} does not parse: {error.msg}"
        ) from error
    known_formulas = formula_namespace()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_OPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            continue
        if isinstance(node, _ALLOWED_OPS + (ast.USub, ast.UAdd)):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            continue
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise BoundExpressionError(
                    f"bound expression {expression!r} may only call "
                    f"formulas by bare name with positional arguments"
                )
            if node.func.id not in known_formulas:
                raise BoundExpressionError(
                    f"bound expression {expression!r} calls "
                    f"{node.func.id!r}, which is not defined in "
                    f"repro.bounds.formulas"
                )
            continue
        if isinstance(node, ast.Name):
            if node.id in PARAMETER_NAMES or node.id in known_formulas:
                continue
            raise BoundExpressionError(
                f"bound expression {expression!r} references {node.id!r}; "
                f"allowed names are parameters {sorted(PARAMETER_NAMES)} "
                f"and repro.bounds.formulas functions"
            )
        raise BoundExpressionError(
            f"bound expression {expression!r} uses disallowed syntax "
            f"({type(node).__name__})"
        )
    return tree


class _ExactDivision(ast.NodeTransformer):
    """Rewrite integer literals as ``Fraction`` constructor calls.

    Under plain evaluation ``1/2`` is a float and ``t/(n - 2*t)`` loses
    exactness for e.g. ``1/3``; lifting every literal into
    :class:`~fractions.Fraction` makes ``/`` exact so convergence-rate
    arithmetic (round counts from repeated contraction) never drifts.
    """

    def visit_Constant(self, node: ast.Constant) -> ast.AST:  # noqa: N802
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return ast.copy_location(
                ast.Call(
                    func=ast.Name(id="__frac__", ctx=ast.Load()),
                    args=[node],
                    keywords=[],
                ),
                node,
            )
        return node


@functools.lru_cache(maxsize=256)
def _compiled(declaration: str, exact: bool) -> tuple[CodeType, tuple[str, ...]]:
    """*declaration* checked and compiled once per process (for the 256
    most recent expressions), with the :mod:`repro.bounds.formulas`
    functions it calls.

    *exact* compiles it with every integer literal lifted into a
    :class:`~fractions.Fraction` (:class:`_ExactDivision`).  A bad
    expression raises :class:`BoundExpressionError` on every call, since
    nothing is cached for a call that raises.  The functions are looked
    up by name at each evaluation, so the formulas module stays the one
    source of their definitions.
    """
    tree = validate_bound_expression(declaration)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used = tuple(sorted(names - PARAMETER_NAMES))
    if exact:
        tree = ast.fix_missing_locations(_ExactDivision().visit(tree))
    return compile(tree, "<declared-rate>" if exact else "<declared-bound>", "eval"), used


def evaluate_bound(
    declaration: str | None, parameters: Mapping[str, int]
) -> int | None:
    """Evaluate a declared bound at the given parameter values.

    Returns ``None`` for an absent declaration or a sentinel
    (:data:`DERIVED` / :data:`UNSTATED`).  Non-integer results (e.g. a
    :class:`~fractions.Fraction` from a lower-bound formula) are rounded up
    — a bound rounded toward safety stays a bound.
    """
    if declaration is None or declaration in SENTINELS:
        return None
    code, used = _compiled(declaration, exact=False)
    namespace: dict[str, object] = {name: getattr(formulas, name) for name in used}
    for name, value in parameters.items():
        if name in PARAMETER_NAMES:
            namespace[name] = value
    try:
        result = eval(code, {"__builtins__": {}}, namespace)  # noqa: S307
    except NameError as error:
        raise BoundExpressionError(
            f"bound expression {declaration!r} needs a parameter this "
            f"algorithm does not define: {error}"
        ) from error
    if isinstance(result, bool) or not isinstance(
        result, (int, float, Fraction)
    ):
        raise BoundExpressionError(
            f"bound expression {declaration!r} evaluated to "
            f"{type(result).__name__}, expected a number"
        )
    return math.ceil(result)


def evaluate_rate(
    declaration: str | None, parameters: Mapping[str, int]
) -> Fraction | None:
    """Evaluate a declared convergence rate exactly, as a Fraction.

    A convergence rate is the per-round contraction factor of the
    correct-value diameter in an approximate-agreement algorithm; unlike
    the integer budgets it must *not* be rounded, so division is made
    exact by lifting all literals into :class:`~fractions.Fraction`.

    Returns ``None`` for an absent declaration or a sentinel; raises
    :class:`BoundExpressionError` when the result is outside the open
    interval ``(0, 1)`` — anything else is not a contraction.
    """
    if declaration is None or declaration in SENTINELS:
        return None
    code, used = _compiled(declaration, exact=True)
    namespace: dict[str, object] = {name: getattr(formulas, name) for name in used}
    namespace["__frac__"] = Fraction
    for name, value in parameters.items():
        if name in PARAMETER_NAMES:
            namespace[name] = Fraction(value)
    try:
        result = eval(code, {"__builtins__": {}}, namespace)  # noqa: S307
    except NameError as error:
        raise BoundExpressionError(
            f"rate expression {declaration!r} needs a parameter this "
            f"algorithm does not define: {error}"
        ) from error
    if isinstance(result, bool) or not isinstance(result, (int, Fraction)):
        raise BoundExpressionError(
            f"rate expression {declaration!r} evaluated to "
            f"{type(result).__name__}, expected exact rational arithmetic"
        )
    rate = Fraction(result)
    if not 0 < rate < 1:
        raise BoundExpressionError(
            f"rate expression {declaration!r} evaluated to {rate} at "
            f"{dict(parameters)}; a contraction rate must lie in (0, 1)"
        )
    return rate
