"""The paper's algorithms plus the published baselines.

Correct algorithms: Dolev–Strong (classic and active-set forms), oral
messages OM(t), and the paper's Algorithms 1–5.  The strawmen exist only
to be broken by the executable lower-bound proofs.
"""

from repro.algorithms.active_set import ActiveSetBroadcast
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm2 import Algorithm2
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.algorithm4 import Algorithm4, GridExchange
from repro.algorithms.algorithm5 import Algorithm5
from repro.algorithms.cheap_strawman import EchoBroadcast, UnderSigningBroadcast
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.hub_exchange import HubExchange
from repro.algorithms.informed import InformedAlgorithm2
from repro.algorithms.interactive import InteractiveConsistency
from repro.algorithms.multivalued import MultivaluedAgreement
from repro.algorithms.oral_messages import OralMessages
from repro.algorithms.phase_king import PhaseKing
from repro.algorithms.registry import ALGORITHMS, STRAWMEN, AlgorithmInfo, get

__all__ = [
    "ALGORITHMS",
    "STRAWMEN",
    "ActiveSetBroadcast",
    "Algorithm1",
    "Algorithm2",
    "Algorithm3",
    "Algorithm4",
    "Algorithm5",
    "AlgorithmInfo",
    "DolevStrong",
    "EchoBroadcast",
    "GridExchange",
    "HubExchange",
    "InformedAlgorithm2",
    "InteractiveConsistency",
    "MultivaluedAgreement",
    "OralMessages",
    "PhaseKing",
    "UnderSigningBroadcast",
    "get",
]
