"""Tests for the repro-service/1 wire objects."""

import dataclasses
import pickle

import pytest

from repro.service.request import (
    SERVICE_SCHEMA,
    AgreementRequest,
    RequestFormatError,
    RequestOutcome,
)
from repro.transport.faults import random_plan


def request(**overrides):
    fields = dict(
        request_id=3, algorithm="algorithm-3", n=60, t=2, value=1
    )
    fields.update(overrides)
    return AgreementRequest(**fields)


class TestAgreementRequest:
    def test_round_trips_through_json(self):
        original = request(params=(("s", 4),), coin_seed=None)
        data = original.to_json_dict()
        assert data["schema"] == SERVICE_SCHEMA
        assert AgreementRequest.from_json_dict(data) == original

    def test_fault_plan_round_trips(self):
        plan = random_plan(7, n=9, t=2, num_phases=4, rate=0.8)
        original = request(algorithm="dolev-strong", n=9, fault_plan=plan)
        restored = AgreementRequest.from_json_dict(original.to_json_dict())
        assert restored.fault_plan == plan

    def test_coin_seed_round_trips(self):
        original = request(algorithm="ben-or", n=11, coin_seed=12345)
        restored = AgreementRequest.from_json_dict(original.to_json_dict())
        assert restored.coin_seed == 12345

    def test_config_key_ignores_value_plan_and_coins(self):
        plan = random_plan(1, n=60, t=2, num_phases=4, rate=0.8)
        a = request(value=0)
        b = request(value=1, fault_plan=plan, coin_seed=9, request_id=8)
        assert a.config_key() == b.config_key()

    def test_params_change_the_config_key(self):
        assert request().config_key() != request(params=(("s", 4),)).config_key()

    def test_missing_fields_raise(self):
        with pytest.raises(RequestFormatError, match="missing"):
            AgreementRequest.from_json_dict({"schema": SERVICE_SCHEMA, "n": 4})

    def test_unknown_schema_raises(self):
        with pytest.raises(RequestFormatError, match="unknown request schema"):
            AgreementRequest.from_json_dict({"schema": "repro-service/99"})

    def test_non_object_raises(self):
        with pytest.raises(RequestFormatError):
            AgreementRequest.from_json_dict([1, 2, 3])

    def test_picklable(self):
        plan = random_plan(7, n=9, t=2, num_phases=4, rate=0.8)
        original = request(fault_plan=plan)
        assert pickle.loads(pickle.dumps(original)) == original


class TestRequestOutcome:
    def outcome(self):
        return RequestOutcome(
            request_id=0,
            algorithm="algorithm-3",
            ok=True,
            verdict="ok",
            arrival_s=1.0,
            start_s=1.5,
            finish_s=2.25,
        )

    def test_latency_stages_decompose(self):
        outcome = self.outcome()
        assert outcome.queue_wait_s == pytest.approx(0.5)
        assert outcome.service_s == pytest.approx(0.75)
        assert outcome.latency_s == pytest.approx(1.25)

    def test_stages_clamp_at_zero(self):
        outcome = RequestOutcome(
            request_id=0,
            algorithm="x",
            ok=True,
            verdict="ok",
            arrival_s=5.0,
            start_s=1.0,
            finish_s=0.5,
        )
        assert outcome.queue_wait_s == 0.0
        assert outcome.service_s == 0.0
        assert outcome.latency_s == 0.0

    def test_json_dict_carries_verdict_and_latencies(self):
        data = dataclasses.replace(self.outcome(), kind="benign").to_json_dict()
        assert data["schema"] == SERVICE_SCHEMA
        assert (data["kind"], data["verdict"]) == ("benign", "ok")
        assert data["latency_s"] == pytest.approx(1.25)
        assert data["queue_wait_s"] == pytest.approx(0.5)
        assert "excused" not in data
