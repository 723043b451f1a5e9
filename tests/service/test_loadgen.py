"""Load harness: synthesis, percentile math, and a real end-to-end run."""

import math

import numpy as np
import pytest

from repro.protocol import iter_frame_blocks
from repro.service import ServiceConfig, start_local_service
from repro.service.loadgen import (
    LoadReport,
    percentile,
    percentiles,
    run_load,
    synthesize_frames,
)
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean


@pytest.fixture(scope="module")
def plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=32),
            AttributeSpec("income", low=0.0, high=1e5, d=32),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


class TestSynthesizeFrames:
    def test_batches_cover_all_users(self, plan):
        sizes = [n for _, n in synthesize_frames(plan, "r", 2500, batch_size=1000, rng=0)]
        assert sizes == [1000, 1000, 500]

    def test_frames_are_valid_rpf2_for_the_round(self, plan):
        frame, n = next(synthesize_frames(plan, "load-1", 500, batch_size=500, rng=0))
        blocks = list(iter_frame_blocks(frame, expected_round="load-1"))
        assert sum(block.n for block in blocks) == n == 500
        assert {block.attr for block in blocks} <= {"age", "income"}

    def test_deterministic_under_a_seed(self, plan):
        a = [f for f, _ in synthesize_frames(plan, "r", 600, batch_size=200, rng=21)]
        b = [f for f, _ in synthesize_frames(plan, "r", 600, batch_size=200, rng=21)]
        assert a == b

    def test_caller_supplied_data_is_used(self, plan):
        data = {
            "age": np.full(100, 50.0),
            "income": np.full(100, 2e4),
        }
        frames = list(
            synthesize_frames(plan, "r", 100, batch_size=40, rng=1, data=data)
        )
        assert [n for _, n in frames] == [40, 40, 20]

    def test_invalid_sizes_rejected(self, plan):
        with pytest.raises(ValueError, match="n_users"):
            list(synthesize_frames(plan, "r", 0, rng=0))
        with pytest.raises(ValueError, match="batch_size"):
            list(synthesize_frames(plan, "r", 10, batch_size=0, rng=0))

    def test_generation_is_lazy(self, plan):
        frames = synthesize_frames(plan, "r", 10_000_000, batch_size=1000, rng=0)
        frame, n = next(frames)  # a 10M-user feed must not pre-materialize
        assert n == 1000
        frames.close()


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_rank_selection(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0) == 1
        assert percentile(samples, 50) == 51  # nearest rank on 100 samples
        assert percentile(samples, 100) == 100

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0


class TestLoadReport:
    def test_to_dict_shape(self):
        report = LoadReport(
            n_users=100,
            n_uploads=10,
            n_reports_accepted=100,
            elapsed_seconds=2.0,
            latencies_ms=[1.0, 2.0, 3.0],
            n_replayed=1,
        )
        payload = report.to_dict()
        assert payload["reports_per_second"] == 50.0
        assert set(payload["latency_ms"]) == {"p50", "p95", "p99"}
        assert payload["n_replayed"] == 1
        assert payload["n_errors"] == 0

    def test_zero_elapsed_rate_is_nan(self):
        report = LoadReport(
            n_users=0, n_uploads=0, n_reports_accepted=0, elapsed_seconds=0.0
        )
        assert math.isnan(report.reports_per_second)


class TestRunLoadEndToEnd:
    def test_load_run_accepts_every_report(self, plan):
        with start_local_service(ServiceConfig(plan=plan, n_shards=2)) as handle:
            report = run_load(
                handle.host, handle.port, plan, "load-1", 5000,
                batch_size=500, concurrency=4, rng=17,
            )
            assert report.n_users == 5000
            assert report.n_reports_accepted == 5000
            assert report.n_errors == 0
            assert report.n_uploads == 10
            assert len(report.latencies_ms) >= report.n_uploads
            assert report.reports_per_second > 0
            result = handle.collector.estimate("load-1")
            assert sum(result["n_reports"].values()) == 5000
            assert result["errors"] == {}

    def test_concurrent_uploaders_keep_the_feed_exact(self, plan):
        """Eight uploaders against one shard: every report lands once."""
        with start_local_service(ServiceConfig(plan=plan, n_shards=1)) as handle:
            report = run_load(
                handle.host, handle.port, plan, "load-2", 4000,
                batch_size=100, concurrency=8, rng=23,
            )
            assert report.n_reports_accepted == 4000
            assert report.n_errors == 0
            handle.collector.flush()
            stats = handle.collector.stats()
            assert stats["shards"][0]["reports_ingested"] == 4000

    def test_invalid_concurrency_rejected(self, plan):
        with pytest.raises(ValueError, match="concurrency"):
            run_load("127.0.0.1", 1, plan, "r", 10, concurrency=0)


class TestPercentiles:
    def test_one_pass_matches_percentile(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        batch = percentiles(samples, (0, 50, 100))
        assert batch == [percentile(samples, q) for q in (0, 50, 100)]

    def test_empty_is_all_nan(self):
        values = percentiles([], (50, 95, 99))
        assert len(values) == 3
        assert all(math.isnan(v) for v in values)

    def test_accepts_any_iterable(self):
        assert percentiles((v for v in [2.0, 4.0]), (50,)) == [2.0]

    def test_nearest_rank_on_large_sample(self):
        samples = list(range(1, 1001))
        p50, p95, p99 = percentiles(samples, (50, 95, 99))
        assert abs(p50 - 500) <= 1
        assert abs(p95 - 950) <= 1
        assert abs(p99 - 990) <= 1
