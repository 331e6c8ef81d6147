"""The ``--faults`` spec grammar."""

import pytest

from repro.transport.faults import (
    CrashFault,
    Delay,
    Duplicate,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
)
from repro.transport.spec import FaultSpecError, parse_fault_plan

SHAPE = dict(n=7, t=2, num_phases=3)


def parse(spec):
    return parse_fault_plan(spec, **SHAPE)


class TestClauses:
    def test_crash(self):
        assert parse("crash:2").faults == (CrashFault(pid=2),)
        assert parse("crash:2@3").faults == (CrashFault(pid=2, phase=3),)

    def test_crash_with_recovery(self):
        (fault,) = parse("crash:2@1-2").faults
        assert fault == CrashFault(pid=2, phase=1, recovery_phase=3)
        assert not fault.active(3)

    def test_omissions(self):
        assert parse("omit-send:3:0.5").faults == (
            SendOmission(pid=3, rate=0.5),
        )
        assert parse("omit-recv:4:0.25@2-3").faults == (
            ReceiveOmission(pid=4, rate=0.25, first=2, last=3),
        )
        # RATE defaults to 1.0 (drop everything)
        assert parse("omit-send:3").faults == (SendOmission(pid=3),)

    def test_drop_and_delay_and_dup(self):
        assert parse("drop:0->4@2-3").faults == (
            LinkDrop(src=0, dst=4, first=2, last=3),
        )
        assert parse("delay:1->2:2").faults == (Delay(src=1, dst=2, delay=2),)
        assert parse("dup:1->2:3@1-2").faults == (
            Duplicate(src=1, dst=2, copies=3, first=1, last=2),
        )

    def test_partition(self):
        assert parse("partition:1,2@2-3").faults == (
            Partition(group=(1, 2), first=2, last=3),
        )

    def test_seed_clause(self):
        assert parse("crash:1; seed:9").seed == 9

    def test_random_clause_expands(self):
        plan = parse("random:42:0.5")
        assert not plan.is_empty
        assert plan.seed == 42

    def test_multiple_clauses_and_whitespace(self):
        plan = parse(" crash:2@1 ; drop:0->4 ; omit-send:3:0.5 ")
        assert len(plan.faults) == 3

    def test_empty_spec_is_empty_plan(self):
        assert parse("").is_empty
        assert parse(" ; ").is_empty


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "gremlin:1",
            "crash:x",
            "drop:0-4",
            "drop:a->b",
            "omit-send:1:fast",
            "partition:@2",
            "crash:2@x-y",
            # Plans that parse but cannot act on n=7 processors.
            "crash:9@1",
            "crash:-1",
            "partition:1,7",
            "drop:1->1",
            "delay:0->1:-3",
            "delay:0->1:0",
            "dup:0->1:1",
            "omit-send:1:1.5",
            "omit-recv:1:-0.5",
            "omit-send:1:nan",
            "crash:2@0",
            "crash:2@3-2",
            "drop:0->4@3-2",
        ],
    )
    def test_bad_clause_raises_fault_spec_error(self, bad):
        with pytest.raises(FaultSpecError):
            parse(bad)

    def test_plan_error_names_the_fault(self):
        with pytest.raises(FaultSpecError, match=r"crash\(pid=9, phase=1\): pid 9 is outside 0..6"):
            parse("crash:1; crash:9@1")

    def test_a_window_may_run_past_the_last_phase(self):
        assert parse("crash:2@5; drop:0->4@2-9").faults == (
            CrashFault(pid=2, phase=5),
            LinkDrop(src=0, dst=4, first=2, last=9),
        )

    def test_error_names_the_clause(self):
        with pytest.raises(FaultSpecError, match="drop:a->b"):
            parse("crash:1; drop:a->b")
