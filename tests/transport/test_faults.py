"""FaultPlan data model: coins, JSON/pickle round-trips, excuse mapping."""

import pickle

import pytest

from repro.transport.faults import (
    BENIGN_KINDS,
    FAULT_SCHEMA,
    CrashFault,
    Delay,
    Duplicate,
    FaultPlan,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
    excused_processors,
    fault_from_json,
    fault_to_json,
    random_plan,
    unit_coin,
)

ALL_KINDS_PLAN = FaultPlan(
    faults=(
        CrashFault(pid=2, phase=1, recovery_phase=3),
        SendOmission(pid=3, rate=0.5, first=2),
        ReceiveOmission(pid=4, rate=0.25, first=1, last=2),
        LinkDrop(src=0, dst=5, first=1),
        Delay(src=1, dst=2, delay=2),
        Duplicate(src=2, dst=3, copies=3),
        Partition(group=(1, 2), first=2, last=3),
    ),
    seed=7,
)


class TestUnitCoin:
    def test_deterministic_and_order_independent(self):
        a = unit_coin(7, "omission_send", 2, 1, 3, 2)
        b = unit_coin(7, "omission_send", 2, 1, 3, 2)
        assert a == b

    def test_in_unit_interval(self):
        coins = [unit_coin(s, "k", i) for s in range(5) for i in range(50)]
        assert all(0.0 <= c < 1.0 for c in coins)

    def test_key_sensitivity(self):
        assert unit_coin(0, "a", 1) != unit_coin(0, "a", 2)
        assert unit_coin(0, "a", 1) != unit_coin(1, "a", 1)


class TestWindows:
    def test_crash_window_open_ended(self):
        crash = CrashFault(pid=1, phase=2)
        assert not crash.active(1)
        assert crash.active(2) and crash.active(99)

    def test_crash_recovery_closes_the_window(self):
        crash = CrashFault(pid=1, phase=2, recovery_phase=4)
        assert crash.active(2) and crash.active(3)
        assert not crash.active(4)

    def test_bounded_window(self):
        drop = LinkDrop(src=0, dst=1, first=2, last=3)
        assert [drop.active(p) for p in (1, 2, 3, 4)] == [False, True, True, False]

    def test_partition_severs_only_the_cut(self):
        cut = Partition(group=(1, 2))
        assert cut.severs(1, 3) and cut.severs(3, 2)
        assert not cut.severs(1, 2) and not cut.severs(3, 4)


class TestSerialisation:
    def test_fault_json_round_trip_every_kind(self):
        for fault in ALL_KINDS_PLAN.faults:
            data = fault_to_json(fault)
            assert data["kind"] == fault.kind
            assert fault_from_json(data) == fault

    def test_plan_json_round_trip(self):
        data = ALL_KINDS_PLAN.to_json_dict()
        assert data["schema"] == FAULT_SCHEMA
        assert FaultPlan.from_json_dict(data) == ALL_KINDS_PLAN

    def test_plan_pickles(self):
        assert pickle.loads(pickle.dumps(ALL_KINDS_PLAN)) == ALL_KINDS_PLAN

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_json({"kind": "gremlin"})

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_json_dict({"schema": "repro-fault/99", "faults": []})

    def test_describe_mentions_every_kind(self):
        text = ALL_KINDS_PLAN.describe()
        for fault in ALL_KINDS_PLAN.faults:
            assert fault.kind in text
        assert FaultPlan().describe() == "no faults"


class TestExcusedProcessors:
    def test_mapping_per_kind(self):
        events = [
            {"kind": "crash", "pid": 2, "src": 2, "dst": 0},
            {"kind": "omission_send", "src": 3, "dst": 1},
            {"kind": "omission_recv", "src": 0, "dst": 4},
            {"kind": "drop", "src": 5, "dst": 0},
            {"kind": "partition", "src": 6, "dst": 1},
            {"kind": "duplicate", "src": 7, "dst": 1},
            # A partition event naming its cut-off endpoint excuses that one.
            {"kind": "partition", "pid": 8, "src": 0, "dst": 8},
        ]
        assert excused_processors(events) == frozenset({2, 3, 4, 5, 6, 7, 8})

    def test_delay_and_lost_excuse_both_endpoints(self):
        assert excused_processors([{"kind": "delay", "src": 1, "dst": 2}]) == (
            frozenset({1, 2})
        )
        assert excused_processors([{"kind": "lost", "src": 3, "dst": 4}]) == (
            frozenset({3, 4})
        )

    def test_empty(self):
        assert excused_processors([]) == frozenset()


class TestRandomPlan:
    def test_deterministic(self):
        kwargs = dict(n=7, t=2, num_phases=3, rate=0.5)
        assert random_plan(42, **kwargs) == random_plan(42, **kwargs)
        assert random_plan(42, **kwargs) != random_plan(43, **kwargs)

    def test_budget_stays_within_t(self):
        for seed in range(30):
            plan = random_plan(seed, n=9, t=2, num_phases=4, rate=1.0)
            carriers = set()
            for fault in plan.faults:
                carriers.add(getattr(fault, "pid", getattr(fault, "src", None)))
                if fault.kind == "partition":
                    carriers.update(fault.group)
            carriers.discard(None)
            assert len(carriers) <= 2, plan.describe()

    def test_only_benign_kinds(self):
        kinds = {
            fault.kind
            for seed in range(50)
            for fault in random_plan(
                seed, n=7, t=3, num_phases=3, rate=1.0
            ).faults
        }
        assert kinds <= set(BENIGN_KINDS)

    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            random_plan(0, n=5, t=1, num_phases=2, rate=1.5)

    def test_zero_rate_is_empty(self):
        assert random_plan(0, n=5, t=1, num_phases=2, rate=0.0).is_empty
