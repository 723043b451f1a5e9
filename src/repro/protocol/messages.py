"""The JSON-lines wire format for collection rounds (protocol v2).

A deployment sends one small message per user. A :class:`ReportEnvelope`
carries the protocol version, the collection round, the attribute
(multi-attribute sessions share one feed), the payload codec name and a
codec-specific payload (see :mod:`repro.protocol.codecs`), so SW floats,
OLH hash triples and hierarchical level reports all travel the same feed.

:func:`decode_feed_grouped` is the server-side entry point: it partitions a
feed into per-attribute report batches. Every line must carry
``"version": 2``; a line without it, or with any other version, fails with
its line number. For bulk transport, prefer the columnar binary frames in
:mod:`repro.protocol.frames`; JSON lines stay the greppable,
language-neutral interchange form.

Nothing privacy-relevant lives here — by the time a value reaches a report
it is already randomized — but decoding *validates* that reports are
well-formed, so a corrupted or mismatched feed fails loudly instead of
silently biasing the estimate. Malformed lines are reported with their
1-based line number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.protocol.codecs import PayloadCodec, get_codec

__all__ = [
    "PROTOCOL_V2",
    "DEFAULT_ATTR",
    "ReportEnvelope",
    "FeedGroup",
    "encode_batch_v2",
    "decode_feed",
    "decode_feed_grouped",
]

#: The protocol version every JSON-lines report carries.
PROTOCOL_V2 = 2

#: Attribute id single-attribute rounds implicitly report under. The wire
#: line omits ``attr`` when it is this default.
DEFAULT_ATTR = "value"


def _at_line(lineno: int | None) -> str:
    return f"line {lineno}: " if lineno is not None else ""


@dataclass(frozen=True)
class ReportEnvelope:
    """One user's randomized report for any mechanism (protocol v2).

    ``mechanism`` names the payload codec (:mod:`repro.protocol.codecs`);
    ``payload`` is that codec's per-report form — a scalar for
    single-column codecs (SW float, GRR category), a small list otherwise
    (OLH ``[a, b, y]``, HRR ``[row, bit]``, tree rows). The wire line omits
    ``attr`` when it is the default.
    """

    round_id: str
    mechanism: str
    payload: Any
    version: int = PROTOCOL_V2
    attr: str = DEFAULT_ATTR

    def to_json(self) -> str:
        data = {
            "round_id": self.round_id,
            "mech": self.mechanism,
            "payload": self.payload,
            "version": self.version,
        }
        if self.attr != DEFAULT_ATTR:
            data["attr"] = self.attr
        return json.dumps(data, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str, *, lineno: int | None = None) -> "ReportEnvelope":
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise ValueError(
                f"{_at_line(lineno)}malformed report envelope: {line!r}"
            ) from exc
        return cls._from_data(data, line, lineno=lineno)

    @classmethod
    def _from_data(
        cls, data: Any, line: str, *, lineno: int | None = None
    ) -> "ReportEnvelope":
        if not isinstance(data, dict):
            raise ValueError(
                f"{_at_line(lineno)}malformed report envelope: {line!r}"
            )
        try:
            # Coerced, so a "version": "2" line decodes like "version": 2.
            version = int(data["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{_at_line(lineno)}malformed report envelope: {line!r}"
            ) from exc
        if version != PROTOCOL_V2:
            raise ValueError(
                f"{_at_line(lineno)}unsupported protocol version {version} "
                f"(this decoder speaks {PROTOCOL_V2})"
            )
        try:
            return cls(
                round_id=str(data["round_id"]),
                mechanism=str(data["mech"]),
                payload=data["payload"],
                version=PROTOCOL_V2,
                attr=str(data.get("attr", DEFAULT_ATTR)),
            )
        except KeyError as exc:
            raise ValueError(
                f"{_at_line(lineno)}malformed report envelope: {line!r}"
            ) from exc


@dataclass(frozen=True)
class FeedGroup:
    """One attribute's worth of a decoded feed: codec name + report batch."""

    attr: str
    mechanism: str
    reports: Any
    n: int


def encode_batch_v2(
    round_id: str,
    reports: Any,
    codec: str | PayloadCodec,
    attr: str = DEFAULT_ATTR,
) -> str:
    """Encode one mechanism's report batch as v2 JSON lines.

    ``codec`` is a registered payload codec (or its name); each line is one
    :class:`ReportEnvelope`. Lines share a pre-formatted prefix/suffix so
    only the payload is serialized per report: by ``repr`` for one-column
    codecs, whose payloads are the ints or finite floats of one ``<i8`` or
    ``<f8`` column (for those ``json.dumps`` returns ``repr``), and by
    ``json.dumps`` otherwise.
    """
    if isinstance(codec, str):
        codec = get_codec(codec)
    payloads = codec.to_payloads(reports)
    prefix = (
        f'{{"round_id":{json.dumps(round_id)},'
        f'"mech":{json.dumps(codec.name)},"payload":'
    )
    attr_part = "" if attr == DEFAULT_ATTR else f',"attr":{json.dumps(attr)}'
    suffix = f',"version":{PROTOCOL_V2}{attr_part}}}'
    # A NaN or an infinity, which json.dumps spells differently, makes the
    # sum non-finite.
    if len(codec.columns) == 1 and payloads and math.isfinite(sum(payloads)):
        return prefix + f"{suffix}\n{prefix}".join(map(repr, payloads)) + suffix
    dumps = json.dumps
    return "\n".join(
        f"{prefix}{dumps(p, separators=(',', ':'))}{suffix}" for p in payloads
    )


def decode_feed_grouped(
    payload: str, expected_round: str | None = None
) -> tuple[str, dict[str, FeedGroup]]:
    """Decode a JSON-lines feed into per-attribute report batches.

    All lines must belong to one collection round (checked against
    ``expected_round`` when given) and each attribute must report through a
    single mechanism codec. Returns ``(round_id, {attr: FeedGroup})``; the
    groups partition the feed exactly — every line lands in exactly one
    group, in feed order.
    """
    round_id: str | None = expected_round
    mechanisms: dict[str, str] = {}
    payloads: dict[str, list] = {}
    for lineno, line in enumerate(payload.splitlines(), start=1):
        if not line.strip():
            continue
        envelope = ReportEnvelope.from_json(line, lineno=lineno)
        if round_id is None:
            round_id = envelope.round_id
        elif envelope.round_id != round_id:
            raise ValueError(
                f"{_at_line(lineno)}report for round {envelope.round_id!r} "
                f"mixed into round {round_id!r}"
            )
        known = mechanisms.setdefault(envelope.attr, envelope.mechanism)
        if envelope.mechanism != known:
            raise ValueError(
                f"{_at_line(lineno)}attribute {envelope.attr!r} mixes "
                f"mechanism {envelope.mechanism!r} into {known!r}"
            )
        payloads.setdefault(envelope.attr, []).append(envelope.payload)
    if not payloads:
        raise ValueError("payload contained no reports")
    assert round_id is not None
    groups = {}
    for attr, rows in payloads.items():
        codec = get_codec(mechanisms[attr])
        try:
            reports = codec.from_payloads(rows)
        except ValueError as exc:
            raise ValueError(f"attribute {attr!r}: {exc}") from exc
        groups[attr] = FeedGroup(
            attr=attr, mechanism=codec.name, reports=reports, n=len(rows)
        )
    return round_id, groups


def decode_feed(
    payload: str,
    expected_round: str | None = None,
    expected_attr: str | None = None,
) -> FeedGroup:
    """Decode a single-attribute JSON-lines feed into one report batch.

    The single-attribute counterpart of :func:`decode_feed_grouped`: a feed
    carrying any other attribute fails loudly (against ``expected_attr``
    when given, or against homogeneity otherwise).
    """
    _, groups = decode_feed_grouped(payload, expected_round=expected_round)
    if expected_attr is not None:
        foreign = set(groups) - {expected_attr}
        if foreign:
            raise ValueError(
                f"report for attribute {sorted(foreign)[0]!r} mixed into "
                f"attribute {expected_attr!r}"
            )
        return groups[expected_attr]
    if len(groups) != 1:
        raise ValueError(
            f"feed mixes attributes {sorted(groups)}; use decode_feed_grouped"
        )
    return next(iter(groups.values()))
