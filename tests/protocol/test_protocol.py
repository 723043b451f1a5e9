"""Unit and integration tests for the client/server protocol layer."""

import importlib

import numpy as np
import pytest

import repro.protocol
from repro.metrics.distances import wasserstein_distance
from repro.protocol import (
    DEFAULT_ATTR,
    CollectionServer,
    decode_frame_grouped,
    encode_frame,
    encode_frame_blocks,
)
from tests.protocol.test_frames import rewrite_header

#: The JSON-lines wire's API, which went when the frame became the only
#: wire format: ``(module, dotted attribute)``.
JSONL_API = [
    ("repro.protocol", "ReportEnvelope"),
    ("repro.protocol", "encode_batch_v2"),
    ("repro.protocol", "decode_feed"),
    ("repro.protocol", "decode_feed_grouped"),
    ("repro.protocol", "decode_frame"),
    ("repro.protocol.frames", "decode_any_feed"),
    ("repro.protocol.frames", "decode_frame"),
    ("repro.protocol.codecs", "PayloadCodec.to_payloads"),
    ("repro.protocol.codecs", "PayloadCodec.from_payloads"),
]


def _float_feed(round_id, values, attr=DEFAULT_ATTR):
    return encode_frame(round_id, values, "float", attr=attr)


class TestOneWire:
    """The RPF2 frame is the only wire format."""

    def test_public_names(self):
        assert sorted(repro.protocol.__all__) == [
            "CollectionServer", "DEFAULT_ATTR", "EstimateFailure", "FRAME_MAGIC",
            "FeedGroup", "FrameBlock", "PROTOCOL_V2", "PayloadCodec", "PlanServer",
            "codec_for_estimator", "decode_frame_grouped", "encode_frame",
            "encode_frame_blocks", "estimate_rounds", "get_codec", "is_frame",
            "iter_frame_blocks", "list_codecs", "register_codec",
        ]
        for name in repro.protocol.__all__:
            assert getattr(repro.protocol, name) is not None

    def test_messages_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.protocol.messages")

    @pytest.mark.parametrize(
        ("module", "path"), JSONL_API, ids=[f"{m}.{p}" for m, p in JSONL_API]
    )
    def test_jsonl_api_is_gone(self, module, path):
        owner_name, _, name = path.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
        assert not hasattr(owner, name)

    def test_encode_takes_no_format(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        reports = server.privatize(rng.random(2), rng=rng)
        with pytest.raises(TypeError, match="format"):
            server.encode(reports, format="jsonl")


class TestAttributeField:
    def test_defaults_to_value(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        assert server.attr == DEFAULT_ATTR == "value"
        _, groups = decode_frame_grouped(server.encode(server.privatize(rng.random(3), rng=rng)))
        assert set(groups) == {DEFAULT_ATTR}

    def test_block_without_attr_reads_as_default(self, rng):
        """A block whose header leaves the attribute out reports under the
        default one."""
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        frame = rewrite_header(
            server.encode(server.privatize(rng.random(4), rng=rng)),
            lambda header: header["blocks"][0].pop("attr"),
        )
        assert b'"attr"' not in frame
        assert server.ingest_feed(frame) == 4

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
        with pytest.raises(ValueError, match="attribute"):
            server.ingest_feed(_float_feed("r", np.array([0.1]), attr="income"))

    def test_server_rejects_frame_mixing_attributes(self, rng):
        """A frame that carries the server's attribute beside another one is
        refused whole."""
        server = CollectionServer("r", "sw-ems", 1.0, 32, attr="age")
        reports = server.privatize(rng.random(5), rng=rng)
        frame = encode_frame_blocks(
            "r", [("age", "float", reports), ("income", "float", reports)]
        )
        with pytest.raises(ValueError, match="attribute 'income'"):
            server.ingest_feed(frame)
        assert server.n_reports == 0

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
        round_id, groups = decode_frame_grouped(server.encode([report]))
        assert round_id == "r"
        assert groups[DEFAULT_ATTR].reports.tolist() == [report]

    def test_batch_encoding(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        reports = server.privatize(rng.random(50), rng=rng)
        _, groups = decode_frame_grouped(server.encode(reports))
        assert groups[DEFAULT_ATTR].n == 50
        np.testing.assert_array_equal(groups[DEFAULT_ATTR].reports, reports)


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
        server.ingest_feed(server.encode(reports))
        server.ingest_reports(server.privatize(np.array([0.3]), rng=rng))
        assert server.n_reports == 101

    def test_streaming_equals_batch(self, beta_values):
        """Ingesting in many small frames gives the same estimate as one
        big frame — counts are sufficient statistics."""
        client = CollectionServer("r", "sw-ems", 1.0, 64)
        chunks = [
            client.privatize(chunk, rng=np.random.default_rng(i))
            for i, chunk in enumerate(np.array_split(beta_values, 7))
        ]
        streamed = CollectionServer("r", "sw-ems", 1.0, 64)
        for chunk in chunks:
            streamed.ingest_feed(client.encode(chunk))
        batched = CollectionServer("r", "sw-ems", 1.0, 64)
        batched.ingest_feed(client.encode(np.concatenate(chunks)))
        np.testing.assert_allclose(streamed.estimate(), batched.estimate())

    def test_end_to_end_accuracy(self, beta_values):
        server = CollectionServer("survey", "sw-ems", 2.0, 64)
        reports = server.privatize(beta_values, rng=np.random.default_rng(0))
        server.ingest_feed(server.encode(reports))
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
        server.ingest_feed(
            server.encode(server.privatize(beta_values[:1000], rng=np.random.default_rng(1)))
        )
        early = wasserstein_distance(truth, server.estimate())
        server.ingest_feed(
            server.encode(server.privatize(beta_values[1000:], rng=np.random.default_rng(2)))
        )
        late = wasserstein_distance(truth, server.estimate())
        assert late < early

    def test_em_mode(self, beta_values, rng):
        server = CollectionServer("r", "sw-em", 1.0, 32)
        server.ingest_feed(server.encode(server.privatize(beta_values[:5000], rng=rng)))
        est = server.estimate()
        assert server.estimator.postprocess == "em"
        assert est.sum() == pytest.approx(1.0)
