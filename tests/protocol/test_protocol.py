"""Unit and integration tests for the client/server protocol layer."""

import numpy as np
import pytest

from repro.metrics.distances import wasserstein_distance
from repro.protocol import (
    DEFAULT_ATTR,
    PROTOCOL_V2,
    CollectionServer,
    ReportEnvelope,
    decode_feed,
    decode_feed_grouped,
    encode_batch_v2,
)


def _float_feed(round_id, values, attr=DEFAULT_ATTR):
    return encode_batch_v2(round_id, values, "float", attr=attr)


class TestMessages:
    def test_json_roundtrip(self):
        report = ReportEnvelope("round-1", "float", 0.42)
        assert ReportEnvelope.from_json(report.to_json()) == report

    def test_version_stamped(self):
        assert ReportEnvelope("r", "float", 0.0).version == PROTOCOL_V2

    def test_rejects_unknown_version(self):
        bad = '{"round_id": "r", "mech": "float", "payload": 0.1, "version": 99}'
        with pytest.raises(ValueError, match="version"):
            ReportEnvelope.from_json(bad)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            ReportEnvelope.from_json('{"payload": 0.1, "version": 2}')

    def test_rejects_nonfinite(self):
        line = '{"round_id": "r", "mech": "float", "payload": NaN, "version": 2}'
        with pytest.raises(ValueError, match="finite"):
            decode_feed(line)

    def test_batch_roundtrip(self, rng):
        values = rng.random(100)
        payload = _float_feed("r7", values)
        decoded = decode_feed(payload, expected_round="r7")
        np.testing.assert_array_equal(decoded.reports, values)

    def test_batch_round_mismatch(self, rng):
        payload = _float_feed("round-a", rng.random(3))
        with pytest.raises(ValueError, match="mixed"):
            decode_feed(payload, expected_round="round-b")

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            decode_feed("\n\n")


class TestAttributeField:
    def test_defaults_to_value(self):
        assert ReportEnvelope("r", "float", 0.1).attr == DEFAULT_ATTR == "value"

    def test_attr_roundtrip(self):
        report = ReportEnvelope("r", "float", 0.25, attr="income")
        assert ReportEnvelope.from_json(report.to_json()) == report

    def test_default_attr_keeps_old_wire_format(self):
        """Single-attribute lines leave the attribute off the wire."""
        line = ReportEnvelope("r", "float", 0.5).to_json()
        assert "attr" not in line

    def test_decodes_pre_attr_lines(self):
        """A line without the field decodes to the default attribute."""
        line = '{"round_id": "r", "mech": "float", "payload": 0.1, "version": 2}'
        assert ReportEnvelope.from_json(line).attr == DEFAULT_ATTR

    def test_expected_attr_accepts_matching(self, rng):
        payload = _float_feed("r", rng.random(5), attr="age")
        assert decode_feed(payload, expected_round="r", expected_attr="age").n == 5

    def test_expected_attr_rejects_mixed_feed(self, rng):
        payload = "\n".join(
            [_float_feed("r", rng.random(3), attr="age"),
             _float_feed("r", rng.random(2), attr="income")]
        )
        with pytest.raises(ValueError, match="attribute.*mixed"):
            decode_feed(payload, expected_round="r", expected_attr="age")

    def test_grouped_decode(self, rng):
        ages, incomes = rng.random(4), rng.random(6)
        payload = "\n".join(
            [_float_feed("r", ages, attr="age"),
             _float_feed("r", incomes, attr="income")]
        )
        round_id, groups = decode_feed_grouped(payload, expected_round="r")
        assert round_id == "r"
        assert set(groups) == {"age", "income"}
        np.testing.assert_array_equal(groups["age"].reports, ages)
        np.testing.assert_array_equal(groups["income"].reports, incomes)

    def test_grouped_decode_checks_round(self, rng):
        payload = _float_feed("round-a", rng.random(3), attr="age")
        with pytest.raises(ValueError, match="mixed"):
            decode_feed_grouped(payload, expected_round="round-b")

    def test_grouped_decode_empty_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            decode_feed_grouped("  \n ")

    def test_server_rejects_foreign_attribute_batch(self, rng):
        """A mixed multi-attribute feed cannot silently fold into one round."""
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        low = server.estimator.mechanism.output_low
        payload = _float_feed("r", np.full(3, low + 0.1), attr="income")
        with pytest.raises(ValueError, match="attribute"):
            server.ingest_feed(payload)
        assert server.n_reports == 0

    def test_server_rejects_foreign_attribute_report(self):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        line = ReportEnvelope("r", "float", 0.1, attr="income").to_json()
        with pytest.raises(ValueError, match="attribute"):
            server.ingest_feed(line)

    def test_server_with_matching_attr_accepts(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32, attr="income")
        reports = server.privatize(rng.random(10), rng=rng)
        assert server.ingest_feed(_float_feed("r", reports, attr="income")) == 10

    def test_server_attr_survives_state_roundtrip(self):
        server = CollectionServer("r", "sw-ems", 1.0, 32, attr="income")
        rebuilt = CollectionServer.from_state(server.to_state())
        assert rebuilt.attr == "income"

    def test_server_merge_checks_attr(self):
        a = CollectionServer("r", "sw-ems", 1.0, 32, attr="income")
        b = CollectionServer("r", "sw-ems", 1.0, 32, attr="age")
        with pytest.raises(ValueError, match="attribute"):
            a.merge(b)


class TestClient:
    """The client half of a round: privatize, then encode the feed."""

    def test_single_report_in_domain(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        (report,) = server.privatize(np.array([0.5]), rng=rng)
        mechanism = server.estimator.mechanism
        assert mechanism.output_low <= report <= mechanism.output_high
        envelope = ReportEnvelope.from_json(server.encode([report], format="jsonl"))
        assert envelope.round_id == "r"
        assert envelope.payload == report

    def test_batch_encoding(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        reports = server.privatize(rng.random(50), rng=rng)
        payload = server.encode(reports, format="jsonl")
        assert len(payload.splitlines()) == 50


class TestServer:
    def test_round_mismatch_rejected(self, rng):
        server = CollectionServer("round-a", "sw-ems", 1.0, 32)
        with pytest.raises(ValueError, match="round"):
            server.ingest_feed(_float_feed("round-b", np.array([0.1])))

    def test_estimate_before_reports_raises(self):
        with pytest.raises(RuntimeError, match="no reports"):
            CollectionServer("r", "sw-ems", 1.0, 32).estimate()

    def test_counts_accumulate(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        reports = server.privatize(rng.random(100), rng=rng)
        server.ingest_feed(server.encode(reports, format="jsonl"))
        server.ingest_reports(server.privatize(np.array([0.3]), rng=rng))
        assert server.n_reports == 101

    def test_streaming_equals_batch(self, beta_values):
        """Ingesting in many small batches gives the same estimate as one
        big batch — counts are sufficient statistics."""
        client = CollectionServer("r", "sw-ems", 1.0, 64)
        payloads = [
            client.encode(
                client.privatize(chunk, rng=np.random.default_rng(i)), format="jsonl"
            )
            for i, chunk in enumerate(np.array_split(beta_values, 7))
        ]
        streamed = CollectionServer("r", "sw-ems", 1.0, 64)
        for payload in payloads:
            streamed.ingest_feed(payload)
        batched = CollectionServer("r", "sw-ems", 1.0, 64)
        batched.ingest_feed("\n".join(payloads))
        np.testing.assert_allclose(streamed.estimate(), batched.estimate())

    def test_end_to_end_accuracy(self, beta_values):
        server = CollectionServer("survey", "sw-ems", 2.0, 64)
        reports = server.privatize(beta_values, rng=np.random.default_rng(0))
        server.ingest_feed(server.encode(reports, format="jsonl"))
        estimate = server.estimate()
        truth = np.bincount(
            np.minimum((beta_values * 64).astype(int), 63), minlength=64
        ) / beta_values.size
        assert wasserstein_distance(truth, estimate) < 0.02

    def test_mid_round_estimates_improve(self, beta_values):
        """An estimate after 20x more reports is better, mid-round."""
        server = CollectionServer("r", "sw-ems", 1.0, 64)
        truth = np.bincount(
            np.minimum((beta_values * 64).astype(int), 63), minlength=64
        ) / beta_values.size
        server.ingest_reports(
            server.privatize(beta_values[:1000], rng=np.random.default_rng(1))
        )
        early = wasserstein_distance(truth, server.estimate())
        server.ingest_reports(
            server.privatize(beta_values[1000:], rng=np.random.default_rng(2))
        )
        late = wasserstein_distance(truth, server.estimate())
        assert late < early

    def test_em_mode(self, beta_values, rng):
        server = CollectionServer("r", "sw-em", 1.0, 32)
        server.ingest_reports(server.privatize(beta_values[:5000], rng=rng))
        est = server.estimate()
        assert server.estimator.postprocess == "em"
        assert est.sum() == pytest.approx(1.0)
