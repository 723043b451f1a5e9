"""Columnar binary frames: the bulk-transport form of protocol v2.

JSON lines are greppable but cost a Python-level parse per report — at
collection scale (millions of reports per round) that dominates the server's
ingest path. A *frame* carries the same information as a v2 JSON-lines feed
in a columnar binary layout, so encoding and decoding are a handful of
``ndarray`` buffer operations:

.. code-block:: text

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       4     magic  b"RPF2"
    4       4     header length H (uint32, little-endian)
    8       H     UTF-8 JSON header:
                  {"version": 2, "round_id": "...", "blocks": [
                     {"attr": "...", "mech": "<codec>", "n": <reports>,
                      "columns": [["<name>", "<f8"|"<i8"], ...]}, ...]}
    8+H     ...   for each block, for each column in declared order:
                  the raw little-endian buffer (n * itemsize bytes)

One frame holds one collection round and any number of attribute *blocks*
(a multi-attribute session round fits in a single frame); each block's
column layout is its payload codec's (:mod:`repro.protocol.codecs`), so a
frame and the equivalent JSON-lines feed decode to identical report
batches. Buffers are validated against the header before any array is
built — a truncated or padded frame fails loudly.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Protocol

import numpy as np
from numpy.typing import NDArray

from repro.protocol.codecs import PayloadCodec, get_codec
from repro.protocol.messages import (
    DEFAULT_ATTR,
    PROTOCOL_V2,
    FeedGroup,
    decode_feed_grouped,
)

__all__ = [
    "FRAME_MAGIC",
    "FrameBlock",
    "is_frame",
    "encode_frame",
    "encode_frame_block",
    "encode_frame_blocks",
    "decode_frame",
    "decode_frame_grouped",
    "decode_any_feed",
    "frame_digest",
    "iter_frame_blocks",
]

#: First four bytes of every frame ("Repro Protocol Frame", version 2).
FRAME_MAGIC = b"RPF2"

_HEADER_LEN = struct.Struct("<I")

#: Ceiling on the JSON header size; real headers are a few hundred bytes,
#: so anything larger is a corrupted length field, not a bigger round.
_MAX_HEADER_BYTES = 1 << 20


def is_frame(data: bytes) -> bool:
    """Whether a byte string starts like a protocol v2 frame."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return False
    return bytes(data[:4]) == FRAME_MAGIC


@dataclass(frozen=True)
class _Block:
    attr: str
    codec: PayloadCodec
    columns: dict[str, NDArray[Any]]
    n: int


def _prepare_block(attr: str, codec: str | PayloadCodec, reports: Any) -> _Block:
    if isinstance(codec, str):
        codec = get_codec(codec)
    columns = codec.to_columns(reports)
    lengths = {arr.size for arr in columns.values()}
    if len(lengths) != 1:
        raise ValueError(
            f"codec {codec.name!r} produced mismatched column lengths"
        )
    return _Block(attr=str(attr), codec=codec, columns=columns, n=lengths.pop())


def encode_frame_blocks(
    round_id: str, blocks: Sequence[tuple[str, str | PayloadCodec, Any]]
) -> bytes:
    """Encode ``(attr, codec, reports)`` blocks into one binary frame.

    Attributes must be unique within a frame (one block per attribute);
    shard a round across frames, not across duplicate blocks.
    """
    prepared = [_prepare_block(attr, codec, reports) for attr, codec, reports in blocks]
    if not prepared:
        raise ValueError("frame must contain at least one block")
    attrs = [block.attr for block in prepared]
    if len(set(attrs)) != len(attrs):
        raise ValueError(f"frame repeats attributes: {sorted(attrs)}")
    return _write_frame(str(round_id), prepared)


def encode_frame(
    round_id: str,
    reports: Any,
    codec: str | PayloadCodec,
    attr: str = DEFAULT_ATTR,
) -> bytes:
    """Encode one attribute's report batch as a single-block frame."""
    return encode_frame_blocks(round_id, [(attr, codec, reports)])


def frame_digest(data: bytes) -> str:
    """Stable BLAKE2b-128 hex digest of one frame's wire bytes.

    The content-addressed identity of an upload: the service's durable
    ingest journal stamps every appended segment with it, and the
    idempotency layer uses it both as the default idempotency key and to
    detect key reuse across *different* payloads (a 409, not a replay).
    """
    return blake2b(data, digest_size=16).hexdigest()


def encode_frame_block(block: FrameBlock) -> bytes:
    """Re-encode one decoded block as a standalone single-block frame.

    The durable-journal path: an upload is validated and split into
    per-shard blocks, and each block must be persisted as a
    self-describing RPF2 segment *without* paying the codec's
    ``from_columns`` materialization (the raw wire columns are already in
    hand). Round-trips bit-exactly: ``iter_frame_blocks`` over the result
    yields a block with identical columns.
    """
    return _write_frame(block.round_id, [block])


def _write_frame(round_id: str, blocks: Sequence[_Block | FrameBlock]) -> bytes:
    """The frame's bytes: magic, header, then each block's columns in order.

    Each column joins as a view of its own buffer. Only a column that is
    strided or not of its wire dtype is converted first, so the frame is
    the one copy of the reports.
    """
    header = {
        "version": PROTOCOL_V2,
        "round_id": round_id,
        "blocks": [
            {
                "attr": block.attr,
                "mech": block.codec.name,
                "n": int(block.n),
                "columns": [[name, dtype] for name, dtype in block.codec.columns],
            }
            for block in blocks
        ],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts: list[bytes | memoryview] = [
        FRAME_MAGIC,
        _HEADER_LEN.pack(len(header_bytes)),
        header_bytes,
    ]
    for block in blocks:
        for name, dtype in block.codec.columns:
            column = np.ascontiguousarray(block.columns[name], dtype=np.dtype(dtype))
            parts.append(column.data)
    return b"".join(parts)


class _SupportsRead(Protocol):
    """Anything with a ``read(n)`` returning at most ``n`` bytes."""

    def read(self, n: int, /) -> bytes: ...


class _ByteSource:
    """Exact-read cursor over either a byte string or a binary stream.

    Byte-string sources hand out zero-copy ``memoryview`` slices; stream
    sources read exactly the requested span (looping over short reads).
    Either way a short span surfaces as ``None`` so the caller can raise
    with block/column context, and :meth:`leftover` reports undeclared
    trailing bytes after the last declared buffer.
    """

    def __init__(self, source: bytes | bytearray | memoryview | _SupportsRead) -> None:
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._buf: memoryview | None = memoryview(bytes(source))
            self._offset = 0
            self._stream: _SupportsRead | None = None
        else:
            self._buf = None
            self._offset = 0
            self._stream = source

    def take(self, nbytes: int) -> memoryview | bytes | None:
        """The next ``nbytes`` exactly, or ``None`` if the source runs dry."""
        if self._buf is not None:
            end = self._offset + nbytes
            if end > len(self._buf):
                return None
            view = self._buf[self._offset : end]
            self._offset = end
            return view
        assert self._stream is not None
        parts: list[bytes] = []
        remaining = nbytes
        while remaining > 0:
            chunk = self._stream.read(remaining)
            if not chunk:
                return None
            parts.append(chunk)
            remaining -= len(chunk)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def leftover(self) -> int:
        """Bytes remaining after the declared buffers (0 for a clean frame).

        For streams only *whether* bytes remain is knowable without
        draining; one trailing byte is reported as 1.
        """
        if self._buf is not None:
            return len(self._buf) - self._offset
        assert self._stream is not None
        return 1 if self._stream.read(1) else 0


@dataclass(frozen=True)
class FrameBlock:
    """One attribute's column block, decoded lazily from a frame.

    ``columns`` holds the raw wire arrays (zero-copy views for byte-string
    sources); :meth:`materialize` runs the codec's ``from_columns``
    validation — the cost that scales with report count — and returns the
    :class:`~repro.protocol.messages.FeedGroup` servers ingest. Streaming
    consumers (the service ingest tier) materialize and drop one block at a
    time, so peak memory stays bounded by the largest block rather than the
    whole feed.
    """

    round_id: str
    attr: str
    codec: PayloadCodec
    columns: dict[str, NDArray[Any]]
    n: int

    @property
    def mechanism(self) -> str:
        """The payload codec name this block's reports travel under."""
        return self.codec.name

    def materialize(self) -> FeedGroup:
        """Validate the columns and build the ingestable report batch."""
        return FeedGroup(
            attr=self.attr,
            mechanism=self.codec.name,
            reports=self.codec.from_columns(self.columns),
            n=self.n,
        )


def _read_header_from(src: _ByteSource) -> dict[str, Any]:
    prefix = src.take(8)
    if prefix is None or bytes(prefix[:4]) != FRAME_MAGIC:
        raise ValueError("not a protocol v2 frame (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(bytes(prefix), 4)
    if header_len > _MAX_HEADER_BYTES:
        raise ValueError("frame header length exceeds the payload (truncated?)")
    header_bytes = src.take(header_len)
    if header_bytes is None:
        raise ValueError("frame header length exceeds the payload (truncated?)")
    try:
        header = json.loads(bytes(header_bytes).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ValueError("frame header is not valid JSON") from exc
    if not isinstance(header, dict) or header.get("version") != PROTOCOL_V2:
        version = header.get("version") if isinstance(header, dict) else header
        raise ValueError(
            f"unsupported frame version {version!r} "
            f"(this decoder speaks {PROTOCOL_V2})"
        )
    return header


def iter_frame_blocks(
    source: bytes | bytearray | memoryview | _SupportsRead,
    expected_round: str | None = None,
) -> Iterator[FrameBlock]:
    """Stream a frame's column blocks without materializing the whole feed.

    Accepts either a complete byte string or a binary stream (anything with
    ``read(n)``, e.g. an open file or a socket wrapper) and yields one
    :class:`FrameBlock` per declared block, in wire order. Header and
    per-block structure are validated eagerly as the cursor reaches them —
    duplicate attributes, bad counts, codec/column mismatches, and
    truncated buffers fail loudly at the offending block — and undeclared
    trailing bytes after the last block raise once the iterator is
    exhausted, so a fully-drained iterator certifies the same structural
    contract as :func:`decode_frame_grouped`.

    The generator never calls ``codec.from_columns``; callers choose when
    (and whether) to pay per-block materialization via
    :meth:`FrameBlock.materialize`. This is the bounded-memory ingest path:
    the service drains a frame block by block, folding each into O(state)
    aggregation before touching the next.
    """
    src = _ByteSource(source)
    header = _read_header_from(src)
    round_id = str(header.get("round_id", ""))
    if expected_round is not None and round_id != expected_round:
        raise ValueError(
            f"frame for round {round_id!r} sent to round {expected_round!r}"
        )
    blocks = header.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise ValueError("frame header declares no blocks")
    seen: set[str] = set()
    for block in blocks:
        if not isinstance(block, dict):
            raise ValueError("frame header block entries must be objects")
        attr = str(block.get("attr", DEFAULT_ATTR))
        if attr in seen:
            raise ValueError(f"frame repeats attribute {attr!r}")
        seen.add(attr)
        codec = get_codec(str(block.get("mech", "")))
        n = block.get("n")
        if not isinstance(n, int) or n < 1:
            raise ValueError(
                f"frame block {attr!r} declares invalid report count {n!r}"
            )
        declared = [tuple(col) for col in block.get("columns", [])]
        if declared != [tuple(col) for col in codec.columns]:
            raise ValueError(
                f"frame block {attr!r} columns {declared} do not match "
                f"codec {codec.name!r} layout {list(codec.columns)}"
            )
        columns: dict[str, NDArray[Any]] = {}
        for name, dtype in codec.columns:
            nbytes = n * np.dtype(dtype).itemsize
            raw = src.take(nbytes)
            if raw is None:
                raise ValueError(
                    f"frame block {attr!r} column {name!r} is truncated"
                )
            columns[name] = np.frombuffer(raw, dtype=np.dtype(dtype), count=n)
        yield FrameBlock(
            round_id=round_id, attr=attr, codec=codec, columns=columns, n=n
        )
    trailing = src.leftover()
    if trailing:
        raise ValueError(
            f"frame carries {trailing} undeclared trailing bytes"
        )


def decode_frame_grouped(
    data: bytes, expected_round: str | None = None
) -> tuple[str, dict[str, FeedGroup]]:
    """Decode a frame into per-attribute report batches.

    Returns ``(round_id, {attr: FeedGroup})`` — the same shape as
    :func:`repro.protocol.messages.decode_feed_grouped`, so servers route
    both transports through one code path. The blocks partition the frame
    exactly; leftover bytes after the declared buffers are an error.

    Header validation and buffer slicing run first, over the whole frame,
    through :func:`iter_frame_blocks` (zero-copy ``frombuffer`` views,
    declared order, so structural errors surface deterministically); only
    then does each block's ``codec.from_columns`` materialization run.
    """
    parsed = list(iter_frame_blocks(bytes(data), expected_round=expected_round))
    decoded = [block.materialize() for block in parsed]
    return parsed[0].round_id, {group.attr: group for group in decoded}


def decode_any_feed(
    data: bytes | str, expected_round: str | None = None
) -> tuple[str, dict[str, FeedGroup]]:
    """Decode either transport into per-attribute report batches.

    ``bytes`` must be a binary frame; ``str`` is a v2 JSON-lines feed.
    The single dispatch point every server and session ingest path routes
    through, so transport detection cannot drift between them.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        if not is_frame(data):
            raise ValueError("byte feed does not start with a frame magic")
        return decode_frame_grouped(bytes(data), expected_round=expected_round)
    return decode_feed_grouped(data, expected_round=expected_round)


def decode_frame(
    data: bytes,
    expected_round: str | None = None,
    expected_attr: str | None = None,
) -> FeedGroup:
    """Decode a single-attribute frame into one report batch.

    A frame carrying any other attribute fails loudly (against
    ``expected_attr`` when given, or against homogeneity otherwise).
    """
    _, groups = decode_frame_grouped(data, expected_round=expected_round)
    if expected_attr is not None:
        foreign = set(groups) - {expected_attr}
        if foreign:
            raise ValueError(
                f"frame for attribute {sorted(foreign)[0]!r} sent to "
                f"attribute {expected_attr!r}"
            )
        return groups[expected_attr]
    if len(groups) != 1:
        raise ValueError(
            f"frame mixes attributes {sorted(groups)}; use decode_frame_grouped"
        )
    return next(iter(groups.values()))
