"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One moderate profile for the whole suite: enough examples to matter,
# no deadline flakiness from numpy warm-up costs.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The byte-equality reference suites also run ten times deeper in their
# own CI step, through ``pytest --hypothesis-profile=reference``.
settings.register_profile(
    "reference",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def beta_values() -> np.ndarray:
    """20k Beta(5,2) draws shared by statistical tests (session-scoped)."""
    return np.random.default_rng(777).beta(5.0, 2.0, 20_000)


@pytest.fixture(scope="session")
def bimodal_values() -> np.ndarray:
    """A clearly bimodal unit-domain sample for reconstruction tests."""
    gen = np.random.default_rng(778)
    left = gen.normal(0.25, 0.05, 10_000)
    right = gen.normal(0.75, 0.08, 10_000)
    vals = np.concatenate([left, right])
    return np.clip(vals, 0.0, 1.0)


def true_histogram(values: np.ndarray, d: int) -> np.ndarray:
    """Exact normalized histogram of unit-domain values."""
    idx = np.minimum((values * d).astype(np.int64), d - 1)
    return np.bincount(idx, minlength=d) / values.size


@pytest.fixture(scope="session")
def beta_hist_64(beta_values) -> np.ndarray:
    return true_histogram(beta_values, 64)
