"""The service benchmark's submit loop retries backpressure and nothing else."""

import threading

from benchmarks.bench_perf_service import _drain_submit, bench_plan
from repro.service import ServiceConfig, ServiceOverloadError, ShardedCollector
from repro.service.loadgen import synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution


def test_permanent_rejection_propagates_instead_of_spinning():
    """A feed the plan can never accept must fail the bench, not hang it."""
    plan = bench_plan()
    other = AnalysisPlan(
        epsilon=2.0,
        attributes=(AttributeSpec("height", low=0.0, high=2.5, d=64),),
        tasks=(Distribution("height"),),
    )
    frame, _ = next(synthesize_frames(other, "r1", 50, rng=1))
    outcome: dict = {}
    config = ServiceConfig(plan=plan, n_shards=1)
    with ShardedCollector(config) as collector:

        def submit() -> None:
            try:
                outcome["throttled"] = _drain_submit(collector, frame, "r1")
            except Exception as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=submit, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
    assert isinstance(outcome.get("error"), ValueError)
    assert "height" in str(outcome["error"])


def test_overload_is_retried_after_a_flush():
    class Overloaded:
        def __init__(self) -> None:
            self.calls = 0
            self.flushes = 0

        def submit_feed(self, data: bytes, round_id: str) -> int:
            self.calls += 1
            if self.calls <= 2:
                raise ServiceOverloadError("shard 0 ingest queue is full; retry")
            return 1

        def flush(self) -> None:
            self.flushes += 1

    collector = Overloaded()
    assert _drain_submit(collector, b"", "r1") == 2
    assert collector.flushes == 2
