"""Fuzz the RPF2 frame decoder through the service ingest path.

Every corruption — truncation at any byte boundary, bad magic, a header
length field that lies, mangled header JSON — must surface as a typed
``ValueError`` (never a struct error, KeyError, or silent misparse), and
a rejected upload must leave the collector bit-for-bit untouched: no
reports ingested, no uploads counted, no journal bytes written.
"""

import numpy as np
import pytest

from repro.protocol.frames import (
    FRAME_MAGIC,
    decode_frame_grouped,
    iter_frame_blocks,
)
from repro.service import ServiceConfig, ShardedCollector
from repro.service.loadgen import synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
)


def make_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=16),
            AttributeSpec("income", low=0.0, high=1e5, d=16),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


def one_frame(plan, n_users=200, round_id="r1", seed=11) -> bytes:
    [(frame, n)] = list(
        synthesize_frames(plan, round_id, n_users, batch_size=n_users, rng=seed)
    )
    assert n == n_users
    return frame


def header_span(frame: bytes) -> int:
    """Bytes covered by magic + length prefix + JSON header."""
    header_len = int.from_bytes(frame[4:8], "little")
    return 8 + header_len


def collector_fingerprint(collector: ShardedCollector) -> tuple:
    stats = collector.stats()
    per_shard = tuple(
        (shard.stats()["reports_ingested"], shard.stats()["blocks_ingested"])
        for shard in collector.shards
    )
    return (
        stats["uploads_accepted"],
        stats["journal"]["bytes"],
        per_shard,
    )


class TestDecoderFuzz:
    def test_every_truncation_raises_value_error(self):
        frame = one_frame(make_plan())
        for cut in range(0, len(frame), 7):
            with pytest.raises(ValueError):
                decode_frame_grouped(frame[:cut])
        # One byte short is the classic torn-tail shape.
        with pytest.raises(ValueError):
            decode_frame_grouped(frame[:-1])

    def test_bad_magic_raises(self):
        frame = one_frame(make_plan())
        with pytest.raises(ValueError, match="magic"):
            decode_frame_grouped(b"XXXX" + frame[4:])
        with pytest.raises(ValueError):
            decode_frame_grouped(FRAME_MAGIC[:2])

    def test_header_length_lies_raise(self):
        frame = one_frame(make_plan())
        rest = frame[8:]
        # Claims more header than the whole payload holds.
        lying = FRAME_MAGIC + (2**24).to_bytes(4, "little") + rest
        with pytest.raises(ValueError, match="header length"):
            decode_frame_grouped(lying)
        # Claims zero header: the JSON parse must fail, typed.
        lying = FRAME_MAGIC + (0).to_bytes(4, "little") + rest
        with pytest.raises(ValueError):
            decode_frame_grouped(lying)

    def test_mangled_header_json_raises(self):
        frame = one_frame(make_plan())
        span = header_span(frame)
        junk = bytes(b ^ 0x5A for b in frame[8:span])
        with pytest.raises(ValueError):
            decode_frame_grouped(frame[:8] + junk + frame[span:])

    def test_lazy_iterator_raises_typed_on_truncation(self):
        frame = one_frame(make_plan())
        blocks = iter_frame_blocks(frame[: len(frame) - 16])
        with pytest.raises(ValueError):
            for _ in blocks:
                pass

    def test_header_byte_flips_raise_value_error_only(self):
        """Flips inside the header region never escape as untyped errors."""
        frame = one_frame(make_plan())
        span = header_span(frame)
        rng = np.random.default_rng(2026)
        for _ in range(200):
            pos = int(rng.integers(0, span))
            bit = 1 << int(rng.integers(0, 8))
            mutated = bytearray(frame)
            mutated[pos] ^= bit
            try:
                decode_frame_grouped(bytes(mutated))
            except ValueError:
                continue
            except Exception as exc:  # pragma: no cover - the failure mode
                pytest.fail(f"untyped decode error {type(exc).__name__}: {exc}")


class TestIngestFuzzNoPartialState:
    def test_rejected_uploads_leave_collector_untouched(self, tmp_path):
        plan = make_plan()
        frame = one_frame(plan)
        span = header_span(frame)
        config = ServiceConfig(plan=plan, journal_dir=tmp_path / "wal")
        rng = np.random.default_rng(7)
        with ShardedCollector(config) as collector:
            collector.flush()
            before = collector_fingerprint(collector)
            corruptions = [
                frame[: len(frame) // 2],
                frame[:-3],
                b"XXXX" + frame[4:],
                FRAME_MAGIC + (2**24).to_bytes(4, "little") + frame[8:],
            ]
            for _ in range(100):
                pos = int(rng.integers(0, span))
                mutated = bytearray(frame)
                mutated[pos] ^= 0xFF
                corruptions.append(bytes(mutated))
            rejected = 0
            for bad in corruptions:
                try:
                    collector.submit(bad, "r1")
                except ValueError:
                    rejected += 1
                    collector.flush()
                    assert collector_fingerprint(collector) == before
                except Exception as exc:  # pragma: no cover
                    pytest.fail(
                        f"untyped ingest error {type(exc).__name__}: {exc}"
                    )
            assert rejected >= len(corruptions) - 5  # flips rarely stay valid
            # The collector still works after the barrage.
            assert collector.submit(frame, "r1").accepted == 200
            collector.flush()
            assert collector_fingerprint(collector) != before

    def test_round_mismatch_is_rejected_before_any_state(self, tmp_path):
        plan = make_plan()
        frame = one_frame(plan)
        config = ServiceConfig(plan=plan, journal_dir=tmp_path / "wal")
        with ShardedCollector(config) as collector:
            before = collector_fingerprint(collector)
            with pytest.raises(ValueError, match="round"):
                collector.submit(frame, "other")
            collector.flush()
            assert collector_fingerprint(collector) == before
