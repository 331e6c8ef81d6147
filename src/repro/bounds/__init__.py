"""The paper's lower bounds: closed-form formulas and executable proofs."""

from repro.bounds import formulas
from repro.bounds.theorem1 import (
    Theorem1Report,
    exchange_sets,
    signature_flows,
    theorem1_experiment,
)
from repro.bounds.theorem2 import (
    Theorem2Report,
    empty_view_decision,
    sensitivity_set,
    theorem2_experiment,
)

__all__ = [
    "Theorem1Report",
    "Theorem2Report",
    "empty_view_decision",
    "exchange_sets",
    "formulas",
    "sensitivity_set",
    "signature_flows",
    "theorem1_experiment",
    "theorem2_experiment",
]
