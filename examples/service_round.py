"""One collection round through the sharded HTTP service, end to end.

Scenario: an aggregator runs ``repro.service`` with four shards behind
its asyncio front end. A fleet of simulated devices privatizes
two attributes (income, age), packs RPF2 frames through the same
``Session`` client path a real deployment uses, and uploads them over
HTTP with the load harness. The aggregator then answers the whole
analysis plan from one ``/estimate`` call — and because every
``(round, attr)`` lives wholly on one shard, the sharded answer is
bit-identical to what a single server ingesting the same frames would
produce.

Run:  PYTHONPATH=src python examples/service_round.py
"""

import json

from repro.service import ServiceConfig, ShardedCollector, start_local_service
from repro.service.loadgen import run_load, synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Quantiles,
)

ROUND = "survey-2026-08"
N_USERS = 200_000


def make_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec(name="income", low=0.0, high=200_000.0),
            AttributeSpec(name="age", low=18.0, high=90.0),
        ),
        tasks=(
            Distribution(attribute="income"),
            Quantiles(attribute="income", quantiles=(0.25, 0.5, 0.75)),
            Mean(attribute="age"),
        ),
    )


def main() -> None:
    plan = make_plan()
    config = ServiceConfig(plan=plan, n_shards=4)

    # --- The service: asyncio HTTP front end + 4 shard aggregators. -------
    with start_local_service(config) as handle:
        print(f"service on http://{handle.host}:{handle.port} "
              f"({config.n_shards} shards)")

        # --- The fleet: vectorized clients uploading over HTTP. -----------
        load = run_load(
            handle.host, handle.port, plan, ROUND, N_USERS,
            batch_size=10_000, concurrency=8, rng=42,
        )
        print(f"uploaded {load.n_reports_accepted:,} reports in "
              f"{load.n_uploads} frames: "
              f"{load.reports_per_second:,.0f} reports/s, "
              f"p99 {load.to_dict()['latency_ms']['p99']:.1f} ms")

        # --- One estimate call reads each home shard and solves. ----------
        result = handle.collector.estimate(ROUND)
        report = result["report"]
        by_task = {r["task"] + ":" + r["attribute"]: r for r in report["results"]}
        q25, q50, q75 = by_task["quantiles:income"]["value"]
        print(f"income quartiles: {q25:,.0f} / {q50:,.0f} / {q75:,.0f}")
        print(f"mean age: {by_task['mean:age']['value']:.1f}")

        # --- Observability: what /statz serves over HTTP. -----------------
        stats = handle.collector.stats()
        per_shard = [s["reports_ingested"] for s in stats["shards"]]
        print(f"per-shard reports: {per_shard}, "
              f"merge took {stats['merge_ms_last']:.1f} ms")

    # --- The acceptance contract, demonstrated: shards are invisible. -----
    frames = list(
        synthesize_frames(plan, ROUND, 50_000, batch_size=5_000, rng=7)
    )
    answers = []
    for n_shards in (1, 4):
        with ShardedCollector(
            ServiceConfig(plan=plan, n_shards=n_shards)
        ) as collector:
            for frame, _n in frames:
                collector.submit(frame, ROUND)
            answers.append(collector.estimate(ROUND)["estimates"])
    identical = json.dumps(answers[0]) == json.dumps(answers[1])
    print(f"1-shard vs 4-shard estimates bit-identical: {identical}")


if __name__ == "__main__":
    main()
