"""The declared-bound discipline, checked at runtime.

BA002 verifies the declarations statically; these tests verify they mean
what they say when an algorithm is actually configured and run: every
registered algorithm declares all three budgets, the expressions evaluate
with the instance's own parameters, and the evaluated numbers really do
bound fault-free executions.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import ALGORITHMS, STRAWMEN
from repro.analysis.sweep import measure
from repro.bounds.expressions import SENTINELS
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement

ALL_INFOS = list(ALGORITHMS.values()) + list(STRAWMEN.values())


def configured(info):
    # Population constraints differ (Algorithm 1 wants n = 2t + 1 exactly,
    # Algorithm 5 wants n at least the smallest square above 6t, ...), so
    # probe small sizes at t = 2 and take the first the algorithm accepts.
    last_error = None
    for n in (5, 7, 9, 12, 16, 20, 25):
        try:
            return info(n, 2)
        except Exception as error:
            last_error = error
    raise AssertionError(f"no working population for {info.name}: {last_error}")


@pytest.mark.parametrize("info", ALL_INFOS, ids=lambda info: info.name)
def test_every_algorithm_declares_its_budgets(info):
    algorithm = configured(info)
    cls = type(algorithm)
    assert cls.phase_bound is not None, "phase_bound undeclared"
    assert cls.message_bound is not None, "message_bound undeclared"
    if cls.authenticated:
        assert cls.signature_bound is not None, "signature_bound undeclared"


@pytest.mark.parametrize("info", ALL_INFOS, ids=lambda info: info.name)
def test_declared_expressions_evaluate_for_the_instance(info):
    algorithm = configured(info)
    for declaration in (
        type(algorithm).phase_bound,
        type(algorithm).message_bound,
        type(algorithm).signature_bound,
    ):
        if declaration is None or declaration in SENTINELS:
            continue
        value = algorithm.declared_bound(declaration)
        assert isinstance(value, int) and value > 0


@pytest.mark.parametrize("info", ALL_INFOS, ids=lambda info: info.name)
def test_num_phases_within_declared_phase_bound(info):
    algorithm = configured(info)
    bound = algorithm.upper_bound_phases()
    if bound is not None:
        assert algorithm.num_phases() <= bound


@pytest.mark.parametrize(
    "info", list(ALGORITHMS.values()), ids=lambda info: info.name
)
def test_fault_free_run_within_declared_budgets(info):
    algorithm = configured(info)
    result = run(algorithm, 1, record_history=False)
    assert check_byzantine_agreement(result).ok
    message_bound = algorithm.upper_bound_messages()
    if message_bound is not None:
        assert result.metrics.messages_by_correct <= message_bound
    signature_bound = algorithm.upper_bound_signatures()
    if signature_bound is not None:
        assert result.metrics.signatures_by_correct <= signature_bound


@pytest.mark.parametrize("info", ALL_INFOS, ids=lambda info: info.name)
def test_fault_free_run_passes_its_verdict(info):
    # The verdict (judge_run) checks each family's own conditions, so it
    # also covers strawman-overshoot's ε-agreement, and every declared bound.
    assert measure(configured(info), 1).agreement_ok
