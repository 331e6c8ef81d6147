"""Property suite: the batch engine is observationally equal to the runner.

``run_batch(strict=True)`` re-executes every unique run class through the
scalar runner and raises on *any* difference in decisions, metrics or
verdict — so these properties simply drive strict batches across the full
algorithm zoo, value streams that mix ``0``/``1``/``True`` (type-punning
dict keys), and seeded benign fault plans.  A silent pass
means byte-identical outcomes; kernels (``phase-king``,
``oral-messages``, over values of every hashable kind and several
shapes) and the dedup/digest-sharing machinery are all under the same
gate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import DEFAULT_VALUE
from repro.algorithms.registry import ALGORITHMS
from repro.core.batch import BatchCase, run_batch
from repro.transport.faults import random_plan

#: One pinned small configuration per registry algorithm (the zoo).
ZOO = [
    ("dolev-strong", 5, 2),
    ("active-set", 5, 2),
    ("oral-messages", 7, 2),
    ("algorithm-1", 5, 2),
    ("algorithm-2", 5, 2),
    ("algorithm-3", 9, 2),
    ("algorithm-5", 9, 1),
    ("informed-algorithm-2", 9, 2),
    ("phase-king", 9, 2),
]


def build(name: str, n: int, t: int, **params):
    return ALGORITHMS[name](n, t, **params)


values_streams = st.lists(
    st.sampled_from([0, 1, True]), min_size=1, max_size=8
)

#: The shapes at which the kernel gate runs each kernel algorithm.
KERNEL_SHAPES = [
    ("phase-king", 1, 0),
    ("phase-king", 5, 1),
    ("phase-king", 9, 2),
    ("phase-king", 13, 3),
    ("oral-messages", 1, 0),
    ("oral-messages", 4, 1),
    ("oral-messages", 7, 2),
    ("oral-messages", 10, 3),
]

#: A kernel row decides the class's input object itself, so draw inputs of
#: every kind a scalar run passes through unchanged.
kernel_values = st.lists(
    st.one_of(
        st.integers(-(2**70), -1),
        st.integers(2**63, 2**70),
        st.booleans(),
        st.text(max_size=3),
        st.tuples(st.integers(-2, 2), st.text(max_size=2)),
        st.frozensets(st.integers(-2, 2), max_size=3),
        st.floats(),
        st.binary(max_size=3),
        st.just(DEFAULT_VALUE),
    ),
    min_size=1,
    max_size=8,
)


class TestStrictEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(values=values_streams)
    def test_every_zoo_algorithm_matches_the_scalar_runner(self, values):
        for name, n, t in ZOO:
            result = run_batch(build(name, n, t), values, strict=True)
            assert result.stats.runs == len(values)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), value=st.sampled_from([0, 1]))
    def test_fault_plan_runs_match_the_scalar_runner(self, seed, value):
        for name, n, t in (("dolev-strong", 5, 2), ("phase-king", 9, 2)):
            algorithm = build(name, n, t)
            plan = random_plan(
                seed,
                n=n,
                t=t,
                num_phases=algorithm.num_phases(),
                rate=0.3,
            )
            cases = [BatchCase(value=value, fault_plan=plan)] * 3
            result = run_batch(algorithm, cases, strict=True)
            # The plan is a frozen value object, so the class dedupes.
            assert result.stats.unique_runs == 1
            assert result.stats.replicated_runs == 2

    @settings(max_examples=12, deadline=None)
    @given(values=kernel_values)
    def test_kernel_and_scalar_agree_when_both_forced(self, values):
        # Run the kernel algorithms once normally (kernel path) and once
        # stating no schedule (scalar path): same outcomes.
        for name, n, t in KERNEL_SHAPES:
            with_kernel = run_batch(build(name, n, t), values, strict=True)
            scalar_only = build(name, n, t)
            scalar_only.fault_free_schedule = lambda: None
            without = run_batch(scalar_only, values, strict=True)
            assert [o.comparable() for o in with_kernel.outcomes] == [
                o.comparable() for o in without.outcomes
            ]
            assert with_kernel.stats.kernel_runs > 0
            assert without.stats.kernel_runs == 0

    @pytest.mark.parametrize("name,n,t", [("phase-king", 9, 2), ("oral-messages", 7, 2)])
    def test_an_uninternable_default_takes_the_kernel(self, name, n, t):
        # The closed forms never read the default, so a complex one (which
        # intern_key cannot key) leaves the batch on the kernel.
        result = run_batch(build(name, n, t, default=1j), [0, 1, 0], strict=True)
        assert (result.stats.kernel_runs, result.stats.scalar_runs) == (2, 0)
