"""Registry of the implemented agreement algorithms.

Maps short names to constructors with a uniform ``(n, t, **params)``
signature, plus metadata used by the comparison tables (experiment E11).
The strawmen are registered separately — they are counterexamples, not
algorithms anyone should run — and so is the approximate/randomized
workload family (``WORKLOADS``): those solve a *different problem*
(ε-agreement, probabilistic termination) with their own resilience
domains (``n > 3t`` / ``n > 5t``), so zoo-wide exact-BA sweeps must not
instantiate them at arbitrary ``(n, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.active_set import ActiveSetBroadcast
from repro.approx.benor import BenOr
from repro.approx.filtered_mean import FilteredMeanApprox
from repro.approx.midpoint import MidpointApprox
from repro.approx.strawman import OvershootMidpoint
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm2 import Algorithm2
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.algorithm5 import Algorithm5
from repro.algorithms.cheap_strawman import EchoBroadcast, UnderSigningBroadcast
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.informed import InformedAlgorithm2
from repro.algorithms.oral_messages import OralMessages
from repro.algorithms.phase_king import PhaseKing
from repro.core.protocol import AgreementAlgorithm


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry: constructor plus table metadata."""

    build: type[AgreementAlgorithm]
    source: str  # citation within the paper
    phases_formula: str
    messages_formula: str

    @property
    def name(self) -> str:
        """The registry name: the class's ``name``."""
        return self.build.name

    @property
    def authenticated(self) -> bool:
        """Whether the algorithm relies on the signature scheme."""
        return self.build.authenticated

    @property
    def family(self) -> str:
        """The workload family: the class's ``family`` (``"exact"``,
        ``"approx"`` or ``"randomized"``)."""
        return self.build.family

    def __call__(self, n: int, t: int, **params) -> AgreementAlgorithm:
        return self.build(n, t, **params)


ALGORITHMS: dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo(
            build=DolevStrong,
            source="baseline [9], classic form",
            phases_formula="t + 1",
            messages_formula="O(n^2)",
        ),
        AlgorithmInfo(
            build=ActiveSetBroadcast,
            source="baseline [9], active-set form",
            phases_formula="t + 2",
            messages_formula="O(nt + t^2)",
        ),
        AlgorithmInfo(
            build=OralMessages,
            source="baseline [14], OM(t)",
            phases_formula="t + 1",
            messages_formula="O(n^t)",
        ),
        AlgorithmInfo(
            build=Algorithm1,
            source="Theorem 3",
            phases_formula="t + 2",
            messages_formula="2t^2 + 2t",
        ),
        AlgorithmInfo(
            build=Algorithm2,
            source="Theorem 4",
            phases_formula="3t + 3",
            messages_formula="5t^2 + 5t",
        ),
        AlgorithmInfo(
            build=Algorithm3,
            source="Lemma 1 / Theorem 5",
            phases_formula="t + 2s + 3",
            messages_formula="2n + 4tn/s + 3t^2 s",
        ),
        AlgorithmInfo(
            build=Algorithm5,
            source="Lemma 5 / Theorem 7",
            phases_formula="~ 3t + 4s",
            messages_formula="O(t^2 + nt/s)",
        ),
        AlgorithmInfo(
            build=InformedAlgorithm2,
            source="Section 5's n < α remedy (Algorithm 2 + informing phase)",
            phases_formula="3t + 4",
            messages_formula="5t^2 + 5t + (t+1)(n-2t-1)",
        ),
        AlgorithmInfo(
            build=PhaseKing,
            source="post-paper reference (Berman-Garay 1989)",
            phases_formula="2t + 3",
            messages_formula="O(t n^2)",
        ),
    )
}

STRAWMEN: dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo(
            build=UnderSigningBroadcast,
            source="counterexample for Theorems 1 and 2",
            phases_formula="1",
            messages_formula="n - 1",
        ),
        AlgorithmInfo(
            build=EchoBroadcast,
            source="counterexample: volume without signature diversity",
            phases_formula="2",
            messages_formula="n (n-1)",
        ),
        AlgorithmInfo(
            build=OvershootMidpoint,
            source="counterexample: untrimmed midpoint breaks ε-validity",
            phases_formula="m",
            messages_formula="m n (n-1)",
        ),
    )
}

#: The approximate / randomized consensus family.  Kept out of
#: ``ALGORITHMS`` deliberately: exact-BA comparison sweeps build every
#: ``ALGORITHMS`` entry at shared ``(n, t)`` grid points and check the
#: exact BA conditions, neither of which applies here.
WORKLOADS: dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo(
            build=MidpointApprox,
            source="ε-agreement, midpoint rule (DLPSW 1986; n > 3t)",
            phases_formula="m = ceil(log2(K/eps))",
            messages_formula="m n (n-1)",
        ),
        AlgorithmInfo(
            build=FilteredMeanApprox,
            source="ε-agreement, trimmed-mean rule (rate t/(n-2t); n > 3t)",
            phases_formula="m = ceil(log_{1/rate}(K/eps))",
            messages_formula="m n (n-1)",
        ),
        AlgorithmInfo(
            build=BenOr,
            source="randomized consensus (Ben-Or 1983; n > 5t)",
            phases_formula="2 per round, geometric rounds",
            messages_formula="2 m n (n-1) cap",
        ),
    )
}


def _fold(name: str) -> str:
    """Spelling-insensitive key: lower-case, separators dropped.

    Lets the CLI accept ``algorithm1``, ``Algorithm_1`` or ``ALGORITHM-1``
    for the canonical ``algorithm-1``.
    """
    return name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")


def get(name: str) -> AlgorithmInfo:
    """Look up a registered algorithm (strawmen and workloads included).

    Exact canonical names win; otherwise the lookup is insensitive to
    case and to ``-``/``_`` separators (see :func:`_fold`).
    """
    registries = (ALGORITHMS, WORKLOADS, STRAWMEN)
    for registry in registries:
        if name in registry:
            return registry[name]
    folded = _fold(name)
    for registry in registries:
        for canonical in sorted(registry):
            if _fold(canonical) == folded:
                return registry[canonical]
    known = sorted(ALGORITHMS) + sorted(WORKLOADS) + sorted(STRAWMEN)
    raise KeyError(f"unknown algorithm {name!r}; known: {known}")
