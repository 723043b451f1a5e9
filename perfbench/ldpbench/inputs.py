"""Plans and seeded inputs for the three workloads.

Every input is a pure function of the workload seed. Raw values come from
the benchmark's own generators; reports for the HTTP workloads are made by
the program's client path (``Session.privatize`` then ``Session.to_feed``),
because the wire format is the program's to define.
"""

from __future__ import annotations

import numpy as np

#: The canonical round: 1M users, two d=64 attributes, eps=2, population split.
CANON_USERS = 1_000_000
CANON_D = 64
#: ``ingest_http`` uploads 1k-report frames cut from one canonical population.
INGEST_FRAME_USERS = 1_000
#: ``monitor_http``: 4 attributes sharing one channel, 40k users a round,
#: uploaded as 4 frames of 10k reports, into a sliding window of W rounds.
MONITOR_ATTRS = 4
MONITOR_D = 256
MONITOR_USERS = 40_000
MONITOR_UPLOADS = 4
MONITOR_WINDOW = 8


def canonical_plan():
    from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean, Quantiles

    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=CANON_D),
            AttributeSpec("income", low=0.0, high=1e5, d=CANON_D),
        ),
        tasks=(Distribution("age"), Mean("income"), Quantiles("income", quantiles=(0.5, 0.9))),
        split="population",
    )


def monitor_plan():
    from repro.tasks import AnalysisPlan, AttributeSpec, Distribution

    names = [f"a{j}" for j in range(MONITOR_ATTRS)]
    return AnalysisPlan(
        epsilon=1.0,
        attributes=tuple(AttributeSpec(n, low=0.0, high=1.0, d=MONITOR_D) for n in names),
        tasks=tuple(Distribution(n) for n in names),
        split="population",
    )


def unit_counts(unit_values: np.ndarray, d: int) -> np.ndarray:
    """Histogram counts of unit-domain values in ``d`` equal bins."""
    bins = np.minimum((unit_values * d).astype(np.int64), d - 1)
    return np.bincount(bins, minlength=d).astype(np.float64)


def canonical_population(seed: int, n: int = CANON_USERS) -> dict[str, np.ndarray]:
    """Smooth, non-uniform ages and incomes, in real units."""
    gen = np.random.default_rng([seed, 0])
    return {
        "age": 100.0 * gen.beta(2.5, 4.0, size=n),
        "income": 1e5 * gen.beta(1.8, 6.0, size=n),
    }


def canonical_unit_counts(values: dict[str, np.ndarray]) -> np.ndarray:
    """``(attributes, d)`` unit-domain histograms of canonical ``age`` and ``income`` values."""
    return np.stack([
        unit_counts(values["age"] / 100.0, CANON_D),
        unit_counts(values["income"] / 1e5, CANON_D),
    ])


def ingest_frames(seed: int, round_id: str) -> tuple[list[bytes], np.ndarray]:
    """The canonical population cut into 1k-user RPF2 frames.

    Returns the frames and, per frame, the ``(attributes, d)`` histograms
    of the values of the users it carries.
    """
    from repro.tasks import Session

    plan = canonical_plan()
    client = Session(plan)
    population = canonical_population(seed)
    gen = np.random.default_rng([seed, 1])
    frames, counts = [], []
    for start in range(0, CANON_USERS, INGEST_FRAME_USERS):
        batch = {k: v[start : start + INGEST_FRAME_USERS] for k, v in population.items()}
        reports = client.privatize(batch, rng=gen)
        frames.append(client.to_feed(reports, round_id, format="frame"))
        counts.append(canonical_unit_counts(batch))
    return frames, np.stack(counts)


def monitor_values(seed: int, round_index: int) -> np.ndarray:
    """``(MONITOR_ATTRS, MONITOR_USERS)`` unit values of one round.

    Each attribute is a unimodal Beta whose mean drifts slowly with the round.
    """
    gen = np.random.default_rng([seed, 2, round_index])
    concentration = 30.0
    rows = []
    for j in range(MONITOR_ATTRS):
        mean = 0.5 + 0.25 * np.sin(2.0 * np.pi * (round_index / 24.0 + j / MONITOR_ATTRS))
        rows.append(
            gen.beta(concentration * mean, concentration * (1.0 - mean), size=MONITOR_USERS)
        )
    return np.stack(rows)


def monitor_rounds(seed: int, n_rounds: int) -> tuple[list[list[bytes]], np.ndarray]:
    """Per round, its 4 upload frames; and ``(rounds, attributes, d)`` value histograms."""
    from repro.tasks import Session

    plan = monitor_plan()
    client = Session(plan)
    names = [spec.name for spec in plan.attributes]
    per_upload = MONITOR_USERS // MONITOR_UPLOADS
    rounds, counts = [], []
    for r in range(n_rounds):
        values = monitor_values(seed, r)
        gen = np.random.default_rng([seed, 3, r])
        frames = []
        for u in range(MONITOR_UPLOADS):
            cols = slice(u * per_upload, (u + 1) * per_upload)
            batch = {name: values[j, cols] for j, name in enumerate(names)}
            reports = client.privatize(batch, rng=gen)
            frames.append(client.to_feed(reports, monitor_round_id(r), format="frame"))
        rounds.append(frames)
        counts.append([unit_counts(row, MONITOR_D) for row in values])
    return rounds, np.asarray(counts)


def monitor_round_id(r: int) -> str:
    return f"m{r:04d}"
