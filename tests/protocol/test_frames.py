"""Tests for the columnar binary frame format."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocol.codecs import get_codec
from repro.protocol.frames import (
    FRAME_MAGIC,
    decode_frame_grouped,
    encode_frame,
    encode_frame_blocks,
    is_frame,
)
from tests.protocol.test_codecs import BATCHES, assert_batches_equal


def rewrite_header(frame, edit):
    """The frame with its JSON header passed through ``edit`` (in place),
    the length prefix fixed up and every column buffer kept."""
    (length,) = struct.unpack_from("<I", frame, 4)
    header = json.loads(frame[8 : 8 + length])
    edit(header)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return frame[:4] + struct.pack("<I", len(header_bytes)) + header_bytes + frame[8 + length :]


class TestFrameRoundTrip:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    @given(data=st.data())
    def test_single_block_roundtrip(self, name, data):
        batch = data.draw(BATCHES[name])
        frame = encode_frame("r1", batch, name, attr="income")
        round_id, groups = decode_frame_grouped(frame, expected_round="r1")
        assert round_id == "r1"
        assert set(groups) == {"income"}
        group = groups["income"]
        assert group.mechanism == name
        assert group.n == get_codec(name).n_reports(batch)
        assert_batches_equal(group.reports, batch)

    @given(data=st.data())
    def test_grouped_decode_partitions_exactly(self, data):
        """Every block lands in exactly one group, keyed by its attribute."""
        names = data.draw(
            st.lists(st.sampled_from(sorted(BATCHES)), min_size=1, max_size=4,
                     unique=True)
        )
        blocks = [
            (f"attr-{name}", name, data.draw(BATCHES[name])) for name in names
        ]
        frame = encode_frame_blocks("r9", blocks)
        round_id, groups = decode_frame_grouped(frame)
        assert round_id == "r9"
        assert set(groups) == {attr for attr, _, _ in blocks}
        for attr, name, batch in blocks:
            assert groups[attr].mechanism == name
            assert groups[attr].n == get_codec(name).n_reports(batch)
            assert_batches_equal(groups[attr].reports, batch)
        assert sum(g.n for g in groups.values()) == sum(
            get_codec(name).n_reports(batch) for _, name, batch in blocks
        )

    def test_frame_is_compact(self, rng):
        """1k SW float reports cost ~8 bytes each plus a fixed header."""
        values = rng.random(1000)
        frame = encode_frame("r", values, "float")
        assert len(frame) < 8 * 1000 + 300


class TestFrameValidation:
    def test_magic_detected(self, rng):
        frame = encode_frame("r", rng.random(4), "float")
        assert is_frame(frame)
        assert frame[:4] == FRAME_MAGIC
        assert not is_frame(b"not a frame")
        assert not is_frame("text")

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_frame_grouped(b"XXXX" + b"\x00" * 16)

    @pytest.mark.parametrize(
        "feed",
        ['{"round_id":"r","mech":"float","payload":0.5,"version":2}', None, [82, 80, 70, 50]],
        ids=["jsonl-text", "none", "list"],
    )
    def test_non_bytes_feed_refused(self, feed):
        """A JSON-lines feed handed over as text, or anything else but bytes,
        is refused as a ValueError that names ``python -m repro pack``, not
        as a TypeError."""
        with pytest.raises(ValueError, match="RPF2 frame built by `python -m repro pack`"):
            decode_frame_grouped(feed)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_sources_decode_alike(self, rng, kind):
        """Any bytes-like frame decodes; the reports never alias a buffer the
        caller may still write to."""
        values = rng.random(6)
        source = bytearray(encode_frame("r", values, "float"))
        _, groups = decode_frame_grouped(kind(source))
        source[-8:] = b"\xff" * 8
        np.testing.assert_array_equal(groups["value"].reports, values)

    @pytest.mark.parametrize("version", [1, "2", None])
    def test_header_version_must_be_2(self, rng, version):
        """Only the integer 2 decodes: a string "2" is not coerced."""
        frame = rewrite_header(
            encode_frame("r", rng.random(3), "float"),
            lambda header: header.update(version=version),
        )
        with pytest.raises(ValueError, match="unsupported frame version"):
            decode_frame_grouped(frame)

    @pytest.mark.parametrize("blocks", [[], None], ids=["empty", "missing"])
    def test_header_without_blocks_rejected(self, rng, blocks):
        def edit(header):
            if blocks is None:
                del header["blocks"]
            else:
                header["blocks"] = blocks

        frame = rewrite_header(encode_frame("r", rng.random(3), "float"), edit)
        with pytest.raises(ValueError, match="declares no blocks"):
            decode_frame_grouped(frame)

    def test_header_repeating_an_attribute_rejected(self, rng):
        frame = rewrite_header(
            encode_frame_blocks(
                "r", [("a", "float", rng.random(3)), ("b", "float", rng.random(3))]
            ),
            lambda header: header["blocks"][1].update(attr="a"),
        )
        with pytest.raises(ValueError, match="repeats attribute 'a'"):
            decode_frame_grouped(frame)

    @pytest.mark.parametrize("n", [0, -1, "3", 2.5])
    def test_header_report_count_must_be_a_positive_int(self, rng, n):
        frame = rewrite_header(
            encode_frame("r", rng.random(3), "float"),
            lambda header: header["blocks"][0].update(n=n),
        )
        with pytest.raises(ValueError, match="invalid report count"):
            decode_frame_grouped(frame)

    def test_header_columns_must_match_the_codec(self, rng):
        frame = rewrite_header(
            encode_frame("r", rng.random(3), "float"),
            lambda header: header["blocks"][0].update(columns=[["value", "<i8"]]),
        )
        with pytest.raises(ValueError, match="do not match codec 'float'"):
            decode_frame_grouped(frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_float_report_rejected(self, bad):
        """A float column that carries a NaN or an infinity, which the
        encoder never writes, is refused at decode."""
        frame = encode_frame("r", np.array([0.25, 0.5]), "float")
        corrupted = frame[:-8] + np.array([bad]).tobytes()
        with pytest.raises(ValueError, match="finite"):
            decode_frame_grouped(corrupted)

    def test_truncated_buffer_rejected(self, rng):
        frame = encode_frame("r", rng.random(100), "float")
        with pytest.raises(ValueError, match="truncated"):
            decode_frame_grouped(frame[:-8])

    def test_trailing_bytes_rejected(self, rng):
        frame = encode_frame("r", rng.random(100), "float")
        with pytest.raises(ValueError, match="trailing"):
            decode_frame_grouped(frame + b"\x00" * 8)

    def test_truncated_header_rejected(self, rng):
        frame = encode_frame("r", rng.random(4), "float")
        with pytest.raises(ValueError, match="truncated|header"):
            decode_frame_grouped(frame[:10])

    def test_round_mismatch_rejected(self, rng):
        frame = encode_frame("round-a", rng.random(4), "float")
        with pytest.raises(ValueError, match="round"):
            decode_frame_grouped(frame, expected_round="round-b")

    def test_duplicate_attr_rejected_on_encode(self, rng):
        with pytest.raises(ValueError, match="repeats"):
            encode_frame_blocks(
                "r",
                [("a", "float", rng.random(3)), ("a", "float", rng.random(2))],
            )

    def test_unknown_codec_in_header_rejected(self, rng):
        frame = bytearray(encode_frame("r", rng.random(4), "float"))
        mutated = bytes(frame).replace(b'"mech":"float"', b'"mech":"nope!"')
        with pytest.raises(ValueError, match="unknown payload codec"):
            decode_frame_grouped(mutated)

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            encode_frame_blocks("r", [])
