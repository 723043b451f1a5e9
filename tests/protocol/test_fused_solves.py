"""Fused same-channel solves under PlanServer and ShardedCollector.

``estimate_rounds`` stacks every attribute on one structured channel into a
single batched solve. Each attribute's estimate must still be the exact bits
its own ``CollectionServer.estimate()`` produces — cold and warm, with one or
two shards — and the fused path, which holds several servers' locks at once,
must hold up under concurrent polls and ingest.
"""

import sys
import threading

import numpy as np
import pytest

import repro.engine.solver as solver_module
from repro.protocol import CollectionServer, PlanServer, estimate_rounds
from repro.service import ServiceConfig, ShardedCollector
from repro.service.loadgen import synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution

ATTRS = ("a0", "a1", "a2", "a3")


def _plan() -> AnalysisPlan:
    """Four attributes that share one Square Wave channel."""
    return AnalysisPlan(
        epsilon=1.0,
        attributes=tuple(AttributeSpec(n, low=0.0, high=1.0, d=64) for n in ATTRS),
        tasks=tuple(Distribution(n) for n in ATTRS),
        split="population",
    )


def _uploads(plan: AnalysisPlan, round_id: str) -> list[bytes]:
    frames = synthesize_frames(plan, round_id, 8000, batch_size=2000, rng=5)
    return [frame for frame, _ in frames]


@pytest.fixture
def solve_widths(monkeypatch):
    """The column count of every batched solve the program runs."""
    widths: list[int] = []
    original = solver_module.batched_expectation_maximization

    def counting(matrix, counts, **kwargs):
        result = original(matrix, counts, **kwargs)
        widths.append(result.estimates.shape[1])
        return result

    monkeypatch.setattr(solver_module, "batched_expectation_maximization", counting)
    return widths


class _SoloServers:
    """One CollectionServer per attribute, re-bound to each new state so its
    posterior cache warm-starts exactly as a long-lived server's would."""

    def __init__(self, reference: PlanServer) -> None:
        self.reference = reference
        self.servers: dict[str, CollectionServer] = {}

    def estimates(self) -> dict[str, np.ndarray]:
        for attr in ATTRS:
            state = self.reference.server(attr).to_state()
            estimator = CollectionServer.from_state(state).estimator
            if attr in self.servers:
                self.servers[attr].rebind_estimator(estimator)
            else:
                self.servers[attr] = CollectionServer.for_estimator(
                    "r1", estimator, attr=attr
                )
        return {attr: server.estimate() for attr, server in self.servers.items()}


def test_plan_server_report_is_one_fused_solve_with_solo_bits(solve_widths):
    plan = _plan()
    uploads = _uploads(plan, "r1")
    server = PlanServer(plan, "r1")
    solo = _SoloServers(server)
    for part in (uploads[:2], uploads[2:]):  # a cold solve, then a warm one
        for frame in part:
            server.ingest_feed(frame)
        solve_widths.clear()
        server.report()
        assert solve_widths == [len(ATTRS)]
        expected = solo.estimates()
        for attr in ATTRS:
            assert server.estimate(attr).tobytes() == expected[attr].tobytes()


@pytest.mark.parametrize("n_shards", [1, 2])
def test_sharded_estimate_fuses_across_shards_with_solo_bits(solve_widths, n_shards):
    plan = _plan()
    uploads = _uploads(plan, "r1")
    reference = PlanServer(plan, "r1")
    solo = _SoloServers(reference)
    with ShardedCollector(ServiceConfig(plan=plan, n_shards=n_shards)) as collector:
        for part in (uploads[:2], uploads[2:]):
            for frame in part:
                collector.submit(frame, "r1")
                reference.ingest_feed(frame)
            solve_widths.clear()
            result = collector.estimate("r1")
            assert solve_widths == [len(ATTRS)]
            homes = {cov["home_shard"] for cov in result["coverage"].values()}
            assert len(homes) == n_shards  # the fused batch spans every shard
            expected = solo.estimates()
            for attr in ATTRS:
                got = np.asarray(result["estimates"][attr], dtype=np.float64)
                assert got.tobytes() == expected[attr].tobytes()


def test_concurrent_fused_polls_and_ingest_never_serve_a_stale_posterior(monkeypatch):
    """8 threads: pollers fuse overlapping server sets while ingesters fold.

    Every solve is recorded with its inputs. Afterwards each server's answer
    must come from a solve of its final counts, and a fresh solo solve of
    that state from the same start must reproduce it bit for bit.
    """
    records: list[tuple] = []
    records_lock = threading.Lock()
    original = solver_module.batched_expectation_maximization

    def recording(matrix, counts, **kwargs):
        result = original(matrix, counts, **kwargs)
        x0 = kwargs.get("x0")
        with records_lock:
            records.append(
                (
                    matrix,
                    np.array(counts, dtype=np.float64),
                    None if x0 is None else np.array(x0, dtype=np.float64),
                    result.estimates.copy(),
                    {k: v for k, v in kwargs.items() if k != "x0"},
                )
            )
        return result

    monkeypatch.setattr(solver_module, "batched_expectation_maximization", recording)
    gen = np.random.default_rng(17)
    servers = {}
    for i in range(6):
        server = CollectionServer("r", "sw-ems", 1.0, 32, attr=f"s{i}")
        server.ingest_reports(server.privatize(gen.random(400), rng=gen))
        servers[f"s{i}"] = server
    names = list(servers)
    subsets = ([0, 1, 2, 3], [2, 3, 4, 5], [0, 2, 4], [5, 3, 1, 0])
    errors: list[BaseException] = []

    def poll(subset: list[int]) -> None:
        try:
            for _ in range(15):
                estimate_rounds({names[i]: servers[names[i]] for i in subset})
        except BaseException as exc:
            errors.append(exc)

    def ingest(seed: int) -> None:
        try:
            rng = np.random.default_rng(seed)
            for step in range(40):
                server = servers[names[(seed + step) % len(names)]]
                server.ingest_reports(server.privatize(rng.beta(2, 5, 50), rng=rng))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=poll, args=(s,)) for s in subsets]
    threads += [threading.Thread(target=ingest, args=(seed,)) for seed in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert any(record[3].shape[1] > 1 for record in records)

    final = estimate_rounds(servers)
    for name, server in servers.items():
        served = final[name].tobytes()
        sources = [
            (record, j)
            for record in records
            for j in range(record[3].shape[1])
            if record[3][:, j].tobytes() == served
        ]
        assert sources, f"{name}: served estimate came from no recorded solve"
        (channel, counts, x0, _, kwargs), j = sources[-1]
        state = server.estimator._counts
        np.testing.assert_array_equal(counts[:, j], state)
        start = None if x0 is None else (x0 if x0.ndim == 1 else x0[:, j])
        fresh = original(channel, state[:, None], x0=start, **kwargs)
        assert fresh.estimates[:, 0].tobytes() == served
