"""Tests for the capacity statistics (percentiles, summaries, rates)."""

import pytest

from repro.service import LatencySummary, ServiceStats, build_stats, percentile
from repro.service.request import RequestOutcome


class TestPercentile:
    def test_nearest_rank_is_an_actual_sample(self):
        samples = [3.0, 1.0, 2.0, 4.0]
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 0.75) == 3.0
        assert percentile(samples, 1.0) == 4.0

    def test_exact_rank_despite_float_error(self):
        # 0.99 * 100 floats to 99.00000000000001; nearest-rank must still
        # pick the 99th order statistic, not the 100th.
        samples = list(range(1, 101))
        assert percentile(samples, 0.99) == 99

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.1])
    def test_quantile_out_of_range_raises(self, q):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], q)


class TestLatencySummary:
    def test_from_samples(self):
        summary = LatencySummary.from_samples([0.1, 0.2, 0.3, 0.4])
        assert summary.count == 4
        assert summary.mean_s == pytest.approx(0.25)
        assert summary.p50_s == 0.2
        assert summary.max_s == 0.4

    def test_empty_is_none(self):
        assert LatencySummary.from_samples([]) is None

    def test_json_dict_rounds_to_microseconds(self):
        summary = LatencySummary.from_samples([0.123456789])
        assert summary.to_json_dict()["p50_s"] == 0.123457


def outcome(request_id, algorithm="algorithm-3", ok=True, **overrides):
    fields = dict(
        request_id=request_id,
        algorithm=algorithm,
        ok=ok,
        verdict="ok" if ok else "ba_violation",
        messages=10,
        signatures=5,
        arrival_s=0.0,
        start_s=0.1,
        finish_s=0.2,
    )
    fields.update(overrides)
    return RequestOutcome(**fields)


class TestBuildStats:
    def test_counts_and_rates(self):
        outcomes = [outcome(0), outcome(1), outcome(2, ok=False)]
        stats = build_stats(outcomes, wall_s=2.0, waves=1)
        assert stats.requests == 3
        assert stats.ok == 2
        assert stats.failed == 1
        assert stats.messages_total == 30
        assert stats.agreements_per_sec == pytest.approx(1.0)
        assert stats.requests_per_sec == pytest.approx(1.5)
        assert stats.messages_per_sec == pytest.approx(15.0)

    def test_benign_requests_count_as_ok(self):
        outcomes = [outcome(0), outcome(1, kind="benign"), outcome(2, ok=False)]
        stats = build_stats(outcomes, wall_s=1.0, waves=1)
        assert (stats.ok, stats.failed, stats.benign) == (2, 1, 1)
        assert stats.agreements_per_sec == pytest.approx(2.0)
        assert stats.to_json_dict()["benign"] == 1

    def test_zero_wall_means_no_rates(self):
        stats = build_stats([], wall_s=0.0, waves=0)
        assert stats.agreements_per_sec is None
        assert stats.requests_per_sec is None
        assert stats.dedup_ratio is None

    def test_per_algorithm_counts(self):
        outcomes = [
            outcome(0, "algorithm-3"),
            outcome(1, "phase-king", ok=False),
            outcome(2, "phase-king"),
        ]
        stats = build_stats(outcomes, wall_s=1.0, waves=1)
        assert stats.per_algorithm == {
            "algorithm-3": {"requests": 1, "ok": 1},
            "phase-king": {"requests": 2, "ok": 1},
        }

    def test_latency_summaries_cover_all_three_stages(self):
        stats = build_stats([outcome(0)], wall_s=1.0, waves=1)
        assert stats.e2e.count == 1
        assert stats.e2e.p50_s == pytest.approx(0.2)
        assert stats.queue.p50_s == pytest.approx(0.1)
        assert stats.service.p50_s == pytest.approx(0.1)

    def test_phase_samples_grouped_by_phase(self):
        stats = build_stats(
            [outcome(0)],
            wall_s=1.0,
            waves=1,
            phase_samples=[(1, 0.01), (1, 0.03), (2, 0.05)],
        )
        assert sorted(stats.per_phase) == [1, 2]
        assert stats.per_phase[1].count == 2
        assert stats.per_phase[2].p50_s == pytest.approx(0.05)

    def test_json_dict_shape(self):
        data = build_stats([outcome(0)], wall_s=1.0, waves=1).to_json_dict()
        assert data["requests"] == 1
        assert set(data["latency"]) == {"e2e", "queue", "service"}
        assert data["per_algorithm"]["algorithm-3"]["ok"] == 1

    def test_dedup_ratio(self):
        stats = ServiceStats(requests=100, unique_runs=4)
        assert stats.dedup_ratio == pytest.approx(25.0)
