"""The client path returns the reports the historical formulas return.

``Session.privatize`` splits the population with ``np.compress``.
``SquareWave.privatize`` draws its second uniform array block by block into
one reused buffer and picks each report's case with a bitwise select. The
references below keep the historical forms — a boolean-mask gather, two
whole draws and a three-array ``np.where`` — and the tests require
byte-equal reports from the same generator state, with the caller's values
left untouched. Batch sizes reach both sides of the block boundary.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.square_wave import _BLOCK, SquareWave
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Session
from repro.utils.rng import as_generator
from repro.utils.validation import check_unit_values


def reference_sw_privatize(sw: SquareWave, values, rng) -> np.ndarray:
    """The historical three-``np.where`` Square Wave randomizer."""
    vals = check_unit_values(values)
    gen = as_generator(rng)
    n = vals.size
    near_mass = 2.0 * sw.b * sw.p
    near = gen.random(n) < near_mass
    u = gen.random(n)
    near_draw = vals - sw.b + u * (2.0 * sw.b)
    far_draw = np.where(u < vals, -sw.b + u, vals + sw.b + (u - vals))
    return np.where(near, near_draw, far_draw)


def reference_session_privatize(session: Session, data, rng) -> dict:
    """The historical population split: one boolean-mask gather per attribute."""
    arrays = session._check_data(data)
    gen = as_generator(rng)
    n = next(iter(arrays.values())).size
    assignment = session._assign(n, gen)
    reports = {}
    for index, name in enumerate(session.attributes):
        group = arrays[name][assignment == index]
        if group.size == 0:
            continue
        unit = session.plan.attribute(name).to_unit(group)
        mechanism = session.estimators[name].mechanism
        reports[name] = reference_sw_privatize(mechanism, unit, gen)
    return reports


#: Batch sizes on both sides of the privatize kernel's block boundary.
BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


def check_square_wave_against_reference(sw, n, edges, seed):
    values = np.random.default_rng(seed).random(n)
    if edges:  # inputs on the domain ends: empty left or right far piece
        values[::3] = 0.0
        values[1::3] = 1.0
    before = values.copy()
    got = sw.privatize(values, rng=np.random.default_rng(seed + 1))
    want = reference_sw_privatize(sw, values, np.random.default_rng(seed + 1))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(values, before)


@given(
    epsilon=st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0, 8.0]),
    b=st.one_of(st.none(), st.floats(0.001, 0.5)),
    n=st.one_of(
        st.integers(1, 100),
        st.sampled_from([1_000, 10_000, 100_000]),
        st.sampled_from(BLOCK_SIZES),
    ),
    edges=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_square_wave_reports_match_reference(epsilon, b, n, edges, seed):
    check_square_wave_against_reference(SquareWave(epsilon, b=b), n, edges, seed)


@pytest.mark.parametrize("edges", [False, True])
@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_square_wave_reports_match_reference_at_block_boundaries(n, edges):
    check_square_wave_against_reference(SquareWave(2.0), n, edges, seed=n)


@given(
    weights=st.lists(st.sampled_from([1.0, 2.0, 0.5]), min_size=1, max_size=5),
    n=st.one_of(st.integers(1, 50), st.sampled_from([5_000, 20_000, 4 * _BLOCK + 3])),
    seed=st.integers(0, 2**32 - 1),
)
def test_session_population_split_matches_reference(weights, n, seed):
    # Equal weights take the split_population path, unequal ones
    # rng.choice; a small n leaves some attributes without users.
    plan = AnalysisPlan(
        epsilon=2.0,
        attributes=tuple(
            AttributeSpec(f"a{i}", low=-5.0, high=5.0, d=16, weight=w)
            for i, w in enumerate(weights)
        ),
        tasks=tuple(Distribution(f"a{i}") for i in range(len(weights))),
    )
    assert plan.split == "population"
    session = Session(plan)
    rng = np.random.default_rng(seed)
    data = {f"a{i}": rng.uniform(-5.0, 5.0, n) for i in range(len(weights))}
    before = {name: values.copy() for name, values in data.items()}
    got = session.privatize(data, rng=np.random.default_rng(seed + 1))
    want = reference_session_privatize(session, data, np.random.default_rng(seed + 1))
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes()
    for name, values in data.items():
        np.testing.assert_array_equal(values, before[name])
