"""The service's stripe plan, over random waves.

``Scheduler._stripes`` cuts a wave into stripes of whole run classes: a
class whose key carries a fault plan is a stripe of its own, plan-free
classes fill stripes of up to ``MAX_STRIPE`` requests, and the stripes
come in order of the requests they serve, most first.  The waves mix two
or three configurations, repeated and distinct values and coin seeds, no
plan, empty plans and non-empty plans (some shared by several requests),
and classes wider than a stripe.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get
from repro.analysis.parallel import MAX_STRIPE
from repro.core.batch import class_key
from repro.service.request import AgreementRequest
from repro.service.scheduler import Scheduler
from repro.transport.faults import CrashFault, FaultPlan, SendOmission

CONFIGS = (("phase-king", 8, 1), ("dolev-strong", 5, 1), ("ben-or", 11, 2))
PLANS = (
    None,
    FaultPlan(),
    FaultPlan(seed=5),
    FaultPlan(faults=(CrashFault(pid=1, phase=2),)),
    FaultPlan(faults=(CrashFault(pid=1, phase=2),), seed=3),
    FaultPlan(faults=(SendOmission(pid=2, rate=0.5, first=1, last=2),), seed=1),
)


@st.composite
def waves(draw):
    """A shuffled wave of ``(submission index, request)`` pairs."""
    configs = draw(st.lists(st.sampled_from(CONFIGS), min_size=2, max_size=3, unique=True))
    groups = draw(
        st.lists(
            st.tuples(
                st.sampled_from(configs),
                st.integers(0, 3),
                st.sampled_from(PLANS),
                st.sampled_from((None, 0, 1)),
                st.one_of(st.integers(1, 4), st.integers(MAX_STRIPE - 3, MAX_STRIPE + 40)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    requests = [
        (name, n, t, value, plan, coin_seed)
        for (name, n, t), value, plan, coin_seed, count in groups
        for _ in range(count)
    ]
    draw(st.randoms(use_true_random=False)).shuffle(requests)
    # Submission indices need not follow wave order.
    indices = list(range(len(requests)))
    draw(st.randoms(use_true_random=False)).shuffle(indices)
    return [
        (
            index,
            AgreementRequest(
                request_id=index,
                algorithm=name,
                n=n,
                t=t,
                value=value,
                fault_plan=plan,
                coin_seed=coin_seed,
            ),
        )
        for index, (name, n, t, value, plan, coin_seed) in zip(indices, requests)
    ]


def run_class(request):
    """The request's configuration and run class."""
    uses_coins = get(request.algorithm).build.uses_coins
    return request.config_key(), class_key(
        request.value, request.fault_plan, request.coin_seed, uses_coins
    )


@given(waves())
@settings(max_examples=60, deadline=None)
def test_stripe_plan(wave):
    requests = dict(wave)
    planned = Scheduler(workers=2)._stripes(wave)
    # Every request lands in exactly one stripe.
    members = [index for _, classes in planned for served in classes for index in served]
    assert sorted(members) == sorted(requests)
    shipped = []
    served = []
    for stripe, classes in planned:
        assert len(stripe.cases) == len(classes)
        for case, indices in zip(stripe.cases, classes):
            assert indices == sorted(indices)
            # The case is its class's, and every member is of that class.
            (key,) = {run_class(requests[index]) for index in indices}
            config, _ = key
            shipped.append(key)
            assert (stripe.algorithm, stripe.n, stripe.t, stripe.params) == config
            value, plan, coin_seed = case
            uses_coins = get(stripe.algorithm).build.uses_coins
            assert class_key(value, plan, coin_seed, uses_coins) == key[1]
        size = sum(map(len, classes))
        served.append(size)
        if any(plan is not None and not plan.is_empty for _, plan, _ in stripe.cases):
            # A plan-carrying class is alone in its stripe.
            assert len(classes) == 1
        elif len(classes) > 1:
            assert size <= MAX_STRIPE
    # Each run class sits whole in one stripe and ships one case.
    assert len(shipped) == len(set(shipped))
    assert set(shipped) == {run_class(request) for request in requests.values()}
    # The stripes come in non-increasing order of the requests they serve.
    assert served == sorted(served, reverse=True)
