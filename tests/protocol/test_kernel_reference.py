"""The server's fold and wire kernels return the historical bytes.

``SquareWave.bucketize_reports`` counts a batch larger than one block block
by block, ``PayloadCodec._check_columns`` passes a column that already has
its wire dtype through uncopied, and the frame writer joins column buffers
without a ``tobytes()`` copy each. The references below keep the historical
forms — one whole-batch pass and a per-column ``tobytes()`` join — and the
tests require byte-equal counts and frames, the same ``ValueError`` for an
out-of-domain batch, and decoded reports that are views of the frame.
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.square_wave import _BLOCK, SquareWave
from repro.protocol.codecs import CategoryCodec, FloatValueCodec, get_codec
from repro.protocol.frames import (
    FRAME_MAGIC,
    decode_frame_grouped,
    encode_frame_block,
    encode_frame_blocks,
    iter_frame_blocks,
)
from repro.protocol.messages import PROTOCOL_V2
from repro.utils.validation import check_domain_size
from tests.protocol.test_codecs import BATCHES

#: Batch sizes on both sides of the fold kernel's block boundary.
BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


def reference_sw_bucketize(sw: SquareWave, reports, d_out: int) -> np.ndarray:
    """The historical one-pass Square Wave bucketizer."""
    d_out = check_domain_size(d_out)
    arr = np.asarray(reports, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("reports must be a non-empty 1-d array")
    if arr.min() < sw.output_low - 1e-9 or arr.max() > sw.output_high + 1e-9:
        raise ValueError("reports outside the SW output domain")
    span = sw.output_high - sw.output_low
    idx = np.floor((arr - sw.output_low) / span * d_out).astype(np.int64)
    idx = np.clip(idx, 0, d_out - 1)
    return np.bincount(idx, minlength=d_out).astype(np.float64)


def reference_encode_frame_blocks(round_id, blocks) -> bytes:
    """The historical frame encoder: a ``tobytes()`` copy per column, one join."""
    header_blocks, buffers = [], []
    for attr, codec, reports in blocks:
        codec = get_codec(codec) if isinstance(codec, str) else codec
        columns = codec.to_columns(reports)
        header_blocks.append(
            {
                "attr": str(attr),
                "mech": codec.name,
                "n": int(next(iter(columns.values())).size),
                "columns": [[name, dtype] for name, dtype in codec.columns],
            }
        )
        for name, dtype in codec.columns:
            buffers.append(np.ascontiguousarray(columns[name], dtype=np.dtype(dtype)).tobytes())
    header = {"version": PROTOCOL_V2, "round_id": str(round_id), "blocks": header_blocks}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([FRAME_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, *buffers])


def outcome(fn, *args):
    """``("ok", bytes)`` or ``("error", message)`` — what a caller observes."""
    try:
        return "ok", fn(*args).tobytes()
    except ValueError as exc:
        return "error", str(exc)


# ----------------------------------------------------------------------
# SquareWave.bucketize_reports
# ----------------------------------------------------------------------


@given(
    epsilon=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    b=st.one_of(st.none(), st.floats(0.001, 0.5)),
    d_out=st.integers(2, 300),
    n=st.one_of(
        st.integers(1, 100),
        st.sampled_from(BLOCK_SIZES),
        st.sampled_from([3 * _BLOCK, 5 * _BLOCK + 17]),
    ),
    specials=st.booleans(),
    outside=st.sampled_from([None, "low", "high"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bucketize_matches_reference(epsilon, b, d_out, n, specials, outside, seed):
    sw = SquareWave(epsilon, b=b)
    low, high = sw.output_low, sw.output_high
    rng = np.random.default_rng(seed)
    reports = rng.uniform(low, high, n)
    if specials:
        # The domain ends, reports inside the 1e-9 tolerance, and every
        # bucket edge with its neighbours one ulp either side.
        edges = low + np.arange(d_out + 1) * ((high - low) / d_out)
        pool = np.concatenate(
            [
                [low, high, low - 5e-10, high + 5e-10],
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
            ]
        )
        at = rng.integers(0, n, size=min(n, pool.size))
        reports[at] = rng.choice(pool, size=at.size)
    if outside is not None:
        reports[rng.integers(0, n)] = low - 2e-9 if outside == "low" else high + 2e-9
    got = outcome(sw.bucketize_reports, reports, d_out)
    want = outcome(reference_sw_bucketize, sw, reports, d_out)
    assert got == want
    assert got[0] == ("ok" if outside is None else "error")


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_bucketize_matches_reference_at_block_boundaries(n):
    sw = SquareWave(2.0)
    reports = sw.privatize(np.random.default_rng(n).random(n), rng=n + 1)
    reports[-1] = sw.output_high  # the domain's upper end, in the last block
    got = sw.bucketize_reports(reports, 64)
    assert got.tobytes() == reference_sw_bucketize(sw, reports, 64).tobytes()
    assert got.sum() == n


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.zeros(0)])
def test_bucketize_rejects_bad_shapes_as_before(bad):
    sw = SquareWave(1.0)
    assert outcome(sw.bucketize_reports, bad, 8) == outcome(reference_sw_bucketize, sw, bad, 8)


# ----------------------------------------------------------------------
# frame encode and decode
# ----------------------------------------------------------------------


class _PassThroughCodec(CategoryCodec):
    """Hands its column to the frame writer as given, dtype and all."""

    def to_columns(self, reports):
        return {"value": reports}


@st.composite
def frame_blocks(draw):
    """One frame's ``(attr, codec, reports)`` blocks, every family mixed in.

    Besides each registered family's batches: a strided float slice and an
    int32 array for an ``<i8`` column, which the writer must convert before
    joining.
    """
    kinds = draw(
        st.lists(
            st.sampled_from([*sorted(BATCHES), "float-strided", "int32"]),
            min_size=1,
            max_size=5,
        )
    )
    blocks = []
    for j, kind in enumerate(kinds):
        if kind == "float-strided":
            values = draw(BATCHES["float"])
            blocks.append((f"a{j}", FloatValueCodec(), np.repeat(values, 2)[::2]))
        elif kind == "int32":
            values = draw(BATCHES["category"]) % (1 << 31)
            blocks.append((f"a{j}", _PassThroughCodec(), values.astype(np.int32)))
        else:
            blocks.append((f"a{j}", kind, draw(BATCHES[kind])))
    return blocks


@given(blocks=frame_blocks(), round_id=st.text(max_size=8))
def test_frame_bytes_match_reference(blocks, round_id):
    frame = encode_frame_blocks(round_id, blocks)
    assert frame == reference_encode_frame_blocks(round_id, blocks)
    # Each block re-encoded alone is the single-block frame of its reports.
    for (attr, codec, reports), block in zip(blocks, iter_frame_blocks(frame), strict=True):
        want = reference_encode_frame_blocks(round_id, [(attr, codec, reports)])
        assert encode_frame_block(block) == want


def test_frame_block_converts_int32_columns():
    frame = encode_frame_blocks("r", [("a", "category", np.arange(5, dtype=np.int64))])
    (block,) = iter_frame_blocks(frame)
    narrowed = replace(block, columns={"value": block.columns["value"].astype(np.int32)})
    assert encode_frame_block(narrowed) == frame


@pytest.mark.parametrize("n", [1, _BLOCK + 1])
def test_decoded_float_reports_are_views_of_the_frame(n):
    sw = SquareWave(2.0)
    reports = sw.privatize(np.random.default_rng(n).random(n), rng=n)
    counts = np.ones(n, dtype=np.int64)
    frame = encode_frame_blocks("r", [("age", "float", reports), ("n", "category", counts)])
    _, groups = decode_frame_grouped(frame)
    wire = np.frombuffer(frame, dtype=np.uint8)
    for group in groups.values():
        assert np.shares_memory(group.reports, wire)
        assert not group.reports.flags.writeable
    assert groups["age"].reports.tobytes() == reports.tobytes()
    want = reference_sw_bucketize(sw, reports, 64)
    assert sw.bucketize_reports(groups["age"].reports, 64).tobytes() == want.tobytes()
