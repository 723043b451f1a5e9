"""The JSON-lines wire after the v1 format was removed.

Protocol v1 (the Square-Wave-only ``{"round_id", "value", "version": 1}``
line) is no longer decoded: a v1 line, or a line with no ``version``, fails
with its 1-based line number, and nothing of the feed is ingested. What
these tests pin for the v2 envelopes that remain: the line shape, the
line-numbered errors, and the prefix/suffix encoder's byte identity with
per-report serialization.
"""

import json

import numpy as np
import pytest

from repro.core.square_wave import SquareWave
from repro.protocol import (
    CollectionServer,
    ReportEnvelope,
    decode_feed,
    decode_feed_grouped,
    encode_batch_v2,
)

V1_LINE = '{"round_id":"r","value":0.25,"version":1}'


def _line(round_id="r", payload=0.1, version=2):
    return json.dumps(
        {"round_id": round_id, "mech": "float", "payload": payload, "version": version}
    )


class TestV1LinesRejected:
    def test_v1_line_rejected_with_line_number(self):
        feed = f"{_line()}\n{V1_LINE}"
        with pytest.raises(ValueError, match="line 2: unsupported protocol version 1"):
            decode_feed_grouped(feed)

    def test_line_without_version_rejected(self):
        feed = f'{_line()}\n\n{{"round_id":"r","value":0.1}}'
        with pytest.raises(ValueError, match="line 3: malformed"):
            decode_feed_grouped(feed)

    def test_server_ingests_nothing_of_a_v1_feed(self):
        server = CollectionServer("r", "sw-ems", 1.0, 16)
        with pytest.raises(ValueError, match="line 1"):
            server.ingest_feed(V1_LINE)
        assert server.n_reports == 0


class TestLineNumberedErrors:
    def test_malformed_line_reports_position(self):
        feed = f"{_line()}\nnot json at all\n"
        with pytest.raises(ValueError, match="line 2.*malformed"):
            decode_feed(feed)

    def test_missing_field_reports_position(self):
        feed = f'{_line()}\n\n{{"payload":0.2,"version":2}}'
        with pytest.raises(ValueError, match="line 3"):
            decode_feed(feed)

    def test_round_mix_reports_position(self):
        feed = f"{_line('a')}\n{_line('b', 0.2)}"
        with pytest.raises(ValueError, match="line 2.*mixed"):
            decode_feed(feed, expected_round="a")

    def test_bad_version_reports_position(self):
        with pytest.raises(ValueError, match="line 1.*version"):
            decode_feed(_line(version=99))

    def test_single_line_api_keeps_plain_message(self):
        with pytest.raises(ValueError, match="^malformed"):
            ReportEnvelope.from_json('{"payload":0.1,"version":2}')


class TestVectorizedEncoder:
    def test_byte_identical_to_dataclass_path(self, rng):
        """Regression: the prefix/suffix encoder must match per-report
        ``ReportEnvelope(...).to_json()`` byte for byte."""
        values = np.concatenate([
            rng.random(200),
            np.array([0.0, 1.0, 0.5, 1e-17, 1.25e300, -3.5]),
            np.array([-0.0, 5e-324, 1e-7, 1e16]),
            # The Square Wave output domain's ends, [-b, 1 + b].
            [
                end
                for b in (SquareWave(eps).b for eps in (0.5, 1.0, 2.0))
                for end in (-b, 1.0 + b)
            ],
        ])
        for attr in ("value", "income"):
            fast = encode_batch_v2("round/7 \"x\"", values, "float", attr=attr)
            slow = "\n".join(
                ReportEnvelope("round/7 \"x\"", "float", float(v), attr=attr).to_json()
                for v in values
            )
            assert fast == slow

    def test_category_lines_byte_identical_to_dataclass_path(self, rng):
        values = np.concatenate([rng.integers(0, 300, 200), [0, -1, 2**62]])
        fast = encode_batch_v2("r", values, "category")
        slow = "\n".join(
            ReportEnvelope("r", "category", int(v)).to_json() for v in values
        )
        assert fast == slow

    def test_roundtrip_via_decoder(self, rng):
        values = rng.random(50)
        decoded = decode_feed(encode_batch_v2("r", values, "float"), expected_round="r")
        np.testing.assert_array_equal(decoded.reports, values)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-d"):
            encode_batch_v2("r", np.zeros((2, 2)), "float")


class TestEnvelopeFormat:
    def test_v2_line_shape(self):
        line = ReportEnvelope("r", "olh", [1, 2, 3]).to_json()
        data = json.loads(line)
        assert data == {
            "round_id": "r", "mech": "olh", "payload": [1, 2, 3], "version": 2
        }
        assert ReportEnvelope.from_json(line) == ReportEnvelope("r", "olh", [1, 2, 3])

    def test_v2_attr_roundtrip(self):
        envelope = ReportEnvelope("r", "float", 0.5, attr="income")
        assert ReportEnvelope.from_json(envelope.to_json()) == envelope

    def test_string_version_coerced_like_v1(self):
        """A string version is coerced, as the v1 decoder coerced it."""
        line = '{"round_id":"r","mech":"float","payload":0.5,"version":"2"}'
        assert ReportEnvelope.from_json(line).version == 2
        _, groups = decode_feed_grouped(line)
        np.testing.assert_array_equal(groups["value"].reports, [0.5])

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            ReportEnvelope.from_json(_line(payload=1, version=3))

    def test_mixed_mechanism_per_attr_rejected(self):
        feed = "\n".join([
            ReportEnvelope("r", "float", 0.5).to_json(),
            ReportEnvelope("r", "category", 3).to_json(),
        ])
        with pytest.raises(ValueError, match="mixes mechanism"):
            decode_feed_grouped(feed)
