"""Property tests for the protocol-v2 payload codecs.

Every codec must satisfy ``decode(encode(x)) == x`` through both of its
encodings — the columnar form (frames) and the per-report payload form
(JSON lines) — for arbitrary valid report batches.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.freq_oracle.hashing import PRIME
from repro.freq_oracle.hrr import HRRReports
from repro.freq_oracle.olh import OLHReports
from repro.hierarchy.hh import TreeReports
from repro.protocol.codecs import (
    codec_for_estimator,
    get_codec,
    list_codecs,
    register_codec,
)

# ----------------------------------------------------------------------
# report-batch strategies, one per codec
# ----------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def float_batches(draw):
    return np.asarray(draw(st.lists(finite_floats, min_size=1, max_size=50)))


@st.composite
def category_batches(draw):
    return np.asarray(
        draw(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=50)),
        dtype=np.int64,
    )


@st.composite
def olh_batches(draw):
    n = draw(st.integers(1, 30))
    ints = st.lists(st.integers(0, PRIME - 1), min_size=n, max_size=n)
    return OLHReports(
        a=np.asarray(draw(ints), dtype=np.int64),
        b=np.asarray(draw(ints), dtype=np.int64),
        y=np.asarray(
            draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)),
            dtype=np.int64,
        ),
    )


@st.composite
def hrr_batches(draw):
    n = draw(st.integers(1, 30))
    rows = st.lists(st.integers(0, 1023), min_size=n, max_size=n)
    bits = st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
    return HRRReports(
        row=np.asarray(draw(rows), dtype=np.int64),
        bit=np.asarray(draw(bits), dtype=np.int64),
    )


@st.composite
def tree_batches(draw):
    levels = draw(
        st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)
    )
    reports, counts = {}, {}
    for level in levels:
        kind = draw(st.sampled_from(("category", "olh", "hrr")))
        batch = draw({"category": category_batches(),
                      "olh": olh_batches(),
                      "hrr": hrr_batches()}[kind])
        reports[level] = batch
        counts[level] = get_codec(kind).n_reports(batch)
    return TreeReports(reports=reports, counts=counts)


BATCHES = {
    "float": float_batches(),
    "category": category_batches(),
    "olh": olh_batches(),
    "hrr": hrr_batches(),
    "tree": tree_batches(),
}


def assert_batches_equal(left, right):
    """Structural equality across every report-batch type."""
    assert type(left) is type(right) or (
        isinstance(left, np.ndarray) and isinstance(right, np.ndarray)
    )
    if isinstance(left, np.ndarray):
        np.testing.assert_array_equal(left, right)
    elif isinstance(left, OLHReports):
        np.testing.assert_array_equal(left.a, right.a)
        np.testing.assert_array_equal(left.b, right.b)
        np.testing.assert_array_equal(left.y, right.y)
    elif isinstance(left, HRRReports):
        np.testing.assert_array_equal(left.row, right.row)
        np.testing.assert_array_equal(left.bit, right.bit)
    elif isinstance(left, TreeReports):
        assert left.counts == right.counts
        assert set(left.reports) == set(right.reports)
        for level in left.reports:
            assert_batches_equal(left.reports[level], right.reports[level])
    else:  # pragma: no cover - unknown batch type means a test bug
        raise AssertionError(f"unhandled batch type {type(left).__name__}")


# ----------------------------------------------------------------------
# round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrips:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    @given(data=st.data())
    def test_columns_roundtrip(self, name, data):
        codec = get_codec(name)
        batch = data.draw(BATCHES[name])
        columns = codec.to_columns(batch)
        assert set(columns) == {col for col, _ in codec.columns}
        assert_batches_equal(codec.from_columns(columns), batch)

    @pytest.mark.parametrize("name", sorted(BATCHES))
    @given(data=st.data())
    def test_payloads_roundtrip(self, name, data):
        codec = get_codec(name)
        batch = data.draw(BATCHES[name])
        payloads = codec.to_payloads(batch)
        assert len(payloads) == codec.n_reports(batch)
        assert_batches_equal(codec.from_payloads(payloads), batch)

    @pytest.mark.parametrize("name", sorted(BATCHES))
    @given(data=st.data())
    def test_payloads_survive_json(self, name, data):
        """Payloads stay exact through a JSON round trip (ints/doubles)."""
        import json

        codec = get_codec(name)
        batch = data.draw(BATCHES[name])
        payloads = json.loads(json.dumps(codec.to_payloads(batch)))
        assert_batches_equal(codec.from_payloads(payloads), batch)


class TestValidation:
    def test_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown payload codec"):
            get_codec("nope")

    def test_registry_lists_builtins(self):
        names = {codec.name for codec in list_codecs()}
        assert {"float", "category", "olh", "hrr", "tree"} <= names

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codec(get_codec("float"))

    def test_float_codec_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            get_codec("float").to_columns(np.array([0.1, np.inf]))

    def test_float_codec_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            get_codec("float").to_columns(np.array([]))

    def test_category_codec_rejects_floats(self):
        with pytest.raises(ValueError, match="integer"):
            get_codec("category").to_columns(np.array([0.5, 1.5]))

    def test_hrr_codec_rejects_bad_bits(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            get_codec("hrr").from_payloads([[0, 2]])

    def test_multi_column_payload_shape_checked(self):
        with pytest.raises(ValueError, match="3-element"):
            get_codec("olh").from_payloads([[1, 2]])

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing column"):
            get_codec("olh").from_columns({"a": np.array([1])})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            get_codec("hrr").from_columns(
                {"row": np.array([1, 2]), "bit": np.array([1])}
            )

    def test_tree_codec_rejects_mixed_oracle_level(self):
        codec = get_codec("tree")
        with pytest.raises(ValueError, match="mixes oracle"):
            codec.from_payloads([[1, 0, 3, 0, 0], [1, 1, 3, 4, 5]])

    @pytest.mark.parametrize("payload", [None, "nope", {}, [None, None, None]])
    def test_corrupted_payloads_raise_value_error(self, payload):
        """null/string/object payloads must fail as ValueError (the error
        type the CLI and feed decoders translate), never TypeError."""
        for name in ("category", "float", "olh"):
            with pytest.raises(ValueError):
                get_codec(name).from_payloads([payload])

    def test_ragged_payload_rows_raise_value_error(self):
        with pytest.raises(ValueError):
            get_codec("olh").from_payloads([[1, 2, 3], [1, 2]])


class TestCodecResolution:
    def test_every_registered_estimator_resolves(self):
        from repro.api.registry import list_estimators, make_estimator

        for spec in list_estimators():
            estimator = make_estimator(spec.name, 1.0, 64)
            assert codec_for_estimator(estimator).name == estimator.wire_codec

    def test_cfo_codec_tracks_oracle_choice(self):
        from repro.binning.cfo_binning import CFOBinning

        grr_backed = CFOBinning(1.0, 64, bins=16, oracle="grr")
        olh_backed = CFOBinning(1.0, 64, bins=16, oracle="olh")
        assert codec_for_estimator(grr_backed).name == "category"
        assert codec_for_estimator(olh_backed).name == "olh"

    def test_uncodeced_object_rejected(self):
        with pytest.raises(ValueError, match="no wire codec"):
            codec_for_estimator(object())
