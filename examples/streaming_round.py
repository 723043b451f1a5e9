"""Continuous collection: windowed rounds, warm-start ticks, drift flags.

Scenario: the one-shot survey from the other examples becomes a monitor —
a new round of ~20k privatized reports lands every tick, and the
aggregator publishes a fresh estimate over the last 6 rounds. The
:class:`repro.streaming.StreamingCollector` keeps that cheap three ways:

* the sliding window advances in O(d) (add newest round, subtract the
  evicted one through the sanctioned state arithmetic) — bit-identical
  to re-ingesting the surviving rounds from scratch;
* EM warm-starts each tick from the previous posterior, so a window that
  moved by one round converges in a fraction of the cold iterations;
* a tick whose window did not change is served from the posterior cache
  without any solve at all (fingerprint skip).

The stream drifts on purpose: a mixture whose mass migrates between two
modes, with the drift monitor cross-checking warm posteriors on a
cadence. The audit reports the cumulative epsilon a user who reported
in every round has spent: every round counts, not only the window's.

Run:  python examples/streaming_round.py
"""

import numpy as np

from repro.api import make_estimator
from repro.streaming import StreamingCollector, shifting_mixture_stream

EPSILON = 1.0
D = 128
WINDOW = 6
ROUNDS = 12
REPORTS_PER_ROUND = 20_000


def main() -> None:
    collector = StreamingCollector(
        {"income": make_estimator("sw-ems", EPSILON, D)},
        window=WINDOW,
        drift_every=3,  # cross-check the warm posterior every 3rd tick
    )

    print(f"window of {WINDOW} rounds, {REPORTS_PER_ROUND:,} reports/round")
    total_iterations = 0
    for i, values in enumerate(
        shifting_mixture_stream(ROUNDS, REPORTS_PER_ROUND, rng=7)
    ):
        rounds = {
            "income": collector.make_round(
                "income", values, rng=np.random.default_rng(i)
            )
        }
        result = collector.tick(rounds)
        tick = result.attributes["income"]
        truth = np.histogram(values, bins=D, range=(0.0, 1.0))[0]
        mode_err = abs(
            int(np.argmax(tick.estimate)) - int(np.argmax(truth))
        ) / D
        total_iterations += result.total_iterations
        flags = "warm" if tick.warm else "cold"
        if tick.drift is not None:
            flags += f", drift={tick.drift:.4f}" + (
                " (invalidated)" if tick.drifted else ""
            )
        print(
            f"tick {result.tick:>2}: {tick.iterations:>3} EM iterations "
            f"({flags}), mode error {mode_err:.3f}"
        )

    # What does continuous participation cost? The collector saw every
    # report, so a user in all ROUNDS rounds has spent ROUNDS x EPSILON by
    # sequential composition, though the estimate covers only the last
    # WINDOW rounds. That figure bounds what anyone holding all of the
    # user's reports can learn; against a budget of 8 it is over.
    audit = collector.audit({"income": EPSILON}, epsilon_budget=8.0)
    print(
        f"budget: {audit.per_round_epsilon:.1f} eps/round -> "
        f"{audit.cumulative_epsilon:.1f} eps over all {audit.rounds} rounds "
        f"for an every-round user (budget 8.0, satisfied={audit.satisfied})"
    )

    # A tick with no new round: the window fingerprint is unchanged, so
    # the cached posterior is served without a solve.
    idle = collector.tick({})
    print(
        f"idle tick: solved={idle.solved}, skipped={idle.skipped} "
        "(fingerprint cache hit, zero solves)"
    )
    print(f"total EM iterations across the stream: {total_iterations}")


if __name__ == "__main__":
    main()
