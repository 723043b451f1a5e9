"""A sharded multi-attribute collection round over the v2 wire protocol.

Scenario: a fleet of devices holds two private attributes (income, age).
Three regional collectors each receive a shard of the fleet's reports as
RPF2 frames, the one wire format — one frame per shard, carrying both
attributes under their mechanisms' payload codecs — aggregate them with a
``PlanServer``, and ship O(state) shard summaries to a coordinator that
merges them exactly and answers every planned task in real-world units.

Also demonstrates the incremental mid-round estimate: after a small late
batch arrives, ``estimate()`` warm-starts EM from the cached posterior
instead of re-solving from the uniform prior (faster, and close to but not
the same as a cold solve of the same counts).

Run:  PYTHONPATH=src python examples/collection_round.py
"""

import numpy as np

from repro.protocol import PlanServer
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Quantiles,
    Session,
)

ROUND = "survey-2026-07"
N_USERS = 300_000
N_SHARDS = 3


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
    gen = np.random.default_rng(42)
    population = {
        "income": gen.gamma(3.0, 18_000.0, N_USERS).clip(0, 200_000),
        "age": gen.normal(44.0, 13.0, N_USERS).clip(18, 90),
    }

    # --- Client side: each shard's devices randomize and pack one frame. ---
    client = Session(plan)  # holds only public parameters
    bounds = np.linspace(0, N_USERS, N_SHARDS + 1).astype(int)
    frames = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        reports = client.privatize(
            {name: values[lo:hi] for name, values in population.items()}, rng=gen
        )
        frames.append(client.to_feed(reports, ROUND))
    sizes = ", ".join(f"{len(f) / 1e6:.1f} MB" for f in frames)
    print(f"{N_SHARDS} shard frames ({sizes}) for {N_USERS:,} users")

    # --- Regional collectors: one PlanServer per shard, O(state) memory. ---
    shards = []
    for frame in frames:
        server = PlanServer(plan, ROUND)
        count = server.ingest_feed(frame)
        print(f"  shard ingested {count:,} reports -> {server.n_reports}")
        shards.append(server)

    # --- Coordinator: merge shard state exactly, answer the plan. ----------
    coordinator = shards[0].merge(shards[1]).merge(shards[2])
    report = coordinator.report()
    q25, q50, q75 = report["quantiles:income"].value
    print(f"\nincome quartiles: {q25:,.0f} / {q50:,.0f} / {q75:,.0f} "
          f"(truth {np.percentile(population['income'], 50):,.0f} median)")
    print(f"mean age: {report['mean:age'].value:.1f} "
          f"(truth {population['age'].mean():.1f})")

    # --- Mid-round increment: a late batch, then a warm re-estimate. -------
    income_server = coordinator.server("income")
    cold_iterations = income_server.estimator.result_.iterations
    late = client.privatize(
        {name: values[:2_000] for name, values in population.items()}, rng=gen
    )
    coordinator.ingest_feed(client.to_feed(late, ROUND))
    coordinator.estimate("income")
    warm_iterations = income_server.estimator.result_.iterations
    print(f"\nlate batch of 2,000: warm re-estimate took {warm_iterations} EM "
          f"iterations (cold solve took {cold_iterations})")


if __name__ == "__main__":
    main()
