"""Streaming collection: the deployment-shaped client/server protocol.

Scenario: an app ships the Square Wave client to devices; reports arrive at
the server in batches over days. The server keeps only O(d) counters and can
publish an interim estimate at any time. Each interim estimate warm-starts the
next solve, so the final estimate is close to, but not the same as, what a
one-shot collection of the same reports would produce: with this script's
five daily polls the two are about 0.015 apart in total variation.

Also demonstrates the wire format (protocol-v2 RPF2 frames) and the
capacity-planning helpers in ``repro.analysis``.

Run:  python examples/streaming_collection.py
"""

import numpy as np

from repro.analysis import olh_variance, required_population
from repro.datasets import taxi_dataset
from repro.metrics import wasserstein_distance
from repro.protocol import CollectionServer

EPSILON = 1.0
ROUND = "pickup-times-2026-06"


def main() -> None:
    # --- Planning: how many users do we need? ------------------------------
    target_std = 0.002
    needed = required_population(EPSILON, target_std=target_std)
    print(f"Per-bucket std target {target_std} at eps={EPSILON} needs about "
          f"{needed:,} users (OLH-variance yardstick, {olh_variance(EPSILON):.2f}/n).")

    # --- The fleet: 300k devices reporting over five "days". ---------------
    ds = taxi_dataset(n=300_000, rng=21)
    truth = ds.histogram(512)
    server = CollectionServer(ROUND, "sw-ems", EPSILON, 512)

    days = np.array_split(ds.values, 5)
    for day, batch in enumerate(days, start=1):
        # Client side: randomize on the device, encode for the wire.
        reports = server.privatize(batch, rng=np.random.default_rng(day))
        frame = server.encode(reports)
        count = server.ingest_feed(frame)
        interim = server.estimate()
        err = wasserstein_distance(truth, interim)
        print(f"day {day}: +{count:,} reports (total {server.n_reports:,}), "
              f"interim W1 = {err:.5f}")
        if day == 1:
            print(f"  wire: one {len(frame):,}-byte frame, magic {frame[:4]!r}")

    # --- Final estimate. ----------------------------------------------------
    final = server.estimate()
    print(f"\nFinal Wasserstein distance: {wasserstein_distance(truth, final):.5f}")
    peak_hour = np.argmax(final) / 512 * 24
    print(f"Estimated busiest pickup time: {peak_hour:.1f}h "
          f"(truth {np.argmax(truth) / 512 * 24:.1f}h)")


if __name__ == "__main__":
    main()
