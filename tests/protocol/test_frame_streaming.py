"""Block-by-block frame ingestion: iter_frame_blocks over a frame's bytes."""

import numpy as np
import pytest

from repro.protocol import CollectionServer, FeedGroup, FrameBlock, iter_frame_blocks
from repro.protocol.frames import decode_frame_grouped, encode_frame_blocks


def make_frame(round_id="r1", n=300, seed=0):
    rng = np.random.default_rng(seed)
    olh = CollectionServer(round_id, "olh", 1.0, 32, attr="age")
    sw = CollectionServer(round_id, "sw-ems", 1.0, 32, attr="income")
    blocks = [
        ("age", olh.codec, olh.privatize(rng.integers(0, 32, size=n), rng=rng)),
        ("income", sw.codec, sw.privatize(rng.random(n), rng=rng)),
    ]
    return encode_frame_blocks(round_id, blocks)


class TestIterFrameBlocks:
    def test_blocks_match_grouped_decode(self):
        frame = make_frame()
        _, groups = decode_frame_grouped(frame)
        blocks = list(iter_frame_blocks(frame))
        assert [b.attr for b in blocks] == ["age", "income"]
        for block in blocks:
            assert isinstance(block, FrameBlock)
            group = block.materialize()
            assert isinstance(group, FeedGroup)
            reference = groups[block.attr]
            assert group.mechanism == reference.mechanism
            assert group.n == reference.n == block.n

    def test_round_carried_on_every_block(self):
        for block in iter_frame_blocks(make_frame(round_id="round-9")):
            assert block.round_id == "round-9"

    def test_expected_round_enforced(self):
        with pytest.raises(ValueError, match="round"):
            list(iter_frame_blocks(make_frame(round_id="r1"), expected_round="r2"))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            list(iter_frame_blocks(b"JUNKJUNKJUNKJUNK"))

    def test_lazy_materialization(self):
        """Iterating yields undecoded blocks; decoding happens on demand."""
        frame = make_frame()
        blocks = list(iter_frame_blocks(frame))
        first = blocks[0].materialize()
        again = blocks[0].materialize()
        assert first.n == again.n
        assert blocks[1].n > 0  # header metadata available without decode
