"""Tests for the Estimator lifecycle: streaming, merge, and serialization."""

import json

import numpy as np
import pytest

from repro.api import Estimator, make_estimator
from repro.binning.cfo_binning import CFOBinning
from repro.core.pipeline import DiscreteSWEstimator, SWEstimator
from repro.freq_oracle.olh import OLH
from repro.hierarchy.admm import HHADMM
from repro.hierarchy.haar import HaarHRR
from repro.hierarchy.hh import HierarchicalHistogram
from repro.mean.scalar import ScalarMeanEstimator
from repro.protocol.server import CollectionServer


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(41).beta(5.0, 2.0, 6000)


def _make(name, **kwargs):
    return make_estimator(name, 1.0, 64, **kwargs)


def _empty_olh_reports():
    from repro.freq_oracle.olh import OLHReports

    empty = np.array([], dtype=np.int64)
    return OLHReports(a=empty, b=empty, y=empty)


class TestStreaming:
    def test_partial_fit_accumulates(self, values):
        est = SWEstimator(1.0, d=32)
        est.partial_fit(values[:2000], rng=np.random.default_rng(0))
        assert est.n_reports == 2000
        est.partial_fit(values[2000:4000], rng=np.random.default_rng(1))
        assert est.n_reports == 4000
        out = est.estimate()
        assert out.sum() == pytest.approx(1.0)

    def test_estimate_before_ingest_raises(self):
        for est in (
            SWEstimator(1.0, d=32),
            DiscreteSWEstimator(1.0, d=32),
            CFOBinning(1.0, d=64, bins=16),
            HierarchicalHistogram(1.0, d=64),
            HHADMM(1.0, d=64),
            HaarHRR(1.0, d=64),
            ScalarMeanEstimator(1.0, mechanism="sr"),
            OLH(1.0, 32),
        ):
            with pytest.raises(RuntimeError, match="no reports"):
                est.estimate()

    def test_fit_equals_privatize_aggregate(self, values):
        reports = SWEstimator(1.0, d=32).privatize(
            values, rng=np.random.default_rng(5)
        )
        split = SWEstimator(1.0, d=32).aggregate(reports)
        whole = SWEstimator(1.0, d=32).fit(values, rng=np.random.default_rng(5))
        np.testing.assert_allclose(split, whole)

    def test_aggregate_resets_prior_state(self, values):
        est = SWEstimator(1.0, d=32)
        est.partial_fit(values[:1000], rng=np.random.default_rng(0))
        reports = est.privatize(values[1000:2000], rng=np.random.default_rng(1))
        est.aggregate(reports)
        assert est.n_reports == 1000  # only the aggregated batch remains

    def test_hierarchy_queries_never_serve_stale_cache(self, values):
        """range_query after a mid-round ingest must not use old estimates."""
        hh = HierarchicalHistogram(1.0, d=64)
        hh.partial_fit(values[:2000], rng=np.random.default_rng(0))
        hh.estimate()
        hh.partial_fit(values[2000:], rng=np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="fit"):
            hh.range_query(0.2, 0.6)  # cache cleared; must re-estimate first
        hh.estimate()
        assert np.isfinite(hh.range_query(0.2, 0.6))

        haar = HaarHRR(1.0, d=64)
        haar.partial_fit(values[:2000], rng=np.random.default_rng(0))
        haar.estimate()
        haar.partial_fit(values[2000:], rng=np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="fit"):
            haar.range_query(0.2, 0.6)

    def test_oracle_aggregate_resets_state_like_other_families(self):
        """FrequencyOracle.aggregate follows the same reset contract."""
        oracle = OLH(1.0, 16)
        data = np.random.default_rng(0).integers(0, 16, 500)
        oracle.partial_fit(data, rng=np.random.default_rng(1))
        batch = oracle.privatize(data, rng=np.random.default_rng(2))
        out = oracle.aggregate(batch)
        assert oracle.n_reports == 500  # state == exactly the aggregated batch
        np.testing.assert_allclose(out, oracle.estimate())

    def test_empty_shard_ingest_is_noop(self, values):
        """Empty batches must not poison streaming state (NaN regression)."""
        data = np.random.default_rng(0).integers(0, 16, 500)
        oracle = OLH(1.0, 16)
        oracle.partial_fit(data, rng=np.random.default_rng(1))
        before = oracle.estimate().copy()
        oracle.ingest(_empty_olh_reports())
        assert oracle.n_reports == 500
        np.testing.assert_allclose(oracle.estimate(), before)

        est = SWEstimator(1.0, d=32)
        est.partial_fit(values[:500], rng=np.random.default_rng(2))
        est.ingest(np.array([]))
        assert est.n_reports == 500

        cfo = CFOBinning(1.0, d=64, bins=16)
        cfo.partial_fit(values[:500], rng=np.random.default_rng(3))
        cfo.ingest(np.array([], dtype=np.int64))
        assert cfo.n_reports == 500
        assert np.isfinite(cfo.estimate()).all()

        scalar = ScalarMeanEstimator(1.0, mechanism="pm")
        scalar.partial_fit(values[:500], rng=np.random.default_rng(4))
        scalar.ingest(np.array([]))
        assert scalar.n_reports == 500


class TestMergeEquivalence:
    """merge() of two partial fits == a single fit on the combined reports."""

    def test_sw_merge_matches_single_aggregate(self, values):
        base = SWEstimator(1.0, d=32)
        reports = base.privatize(values, rng=np.random.default_rng(7))
        shard_a = SWEstimator(1.0, d=32)
        shard_b = SWEstimator(1.0, d=32)
        shard_a.ingest(reports[:3000])
        shard_b.ingest(reports[3000:])
        merged = shard_a.merge(shard_b).estimate()
        single = SWEstimator(1.0, d=32).aggregate(reports)
        np.testing.assert_allclose(merged, single)

    @pytest.mark.parametrize(
        "name", ["sw-discrete-ems", "cfo-16", "hh", "hh-admm", "haar-hrr", "olh"]
    )
    def test_merge_matches_sequential_ingest(self, name, values):
        """Two shards merged == one estimator ingesting both batches."""
        shard_a, shard_b, combined = _make(name), _make(name), _make(name)
        if name == "olh":
            data = np.random.default_rng(2).integers(0, 64, values.size)
        else:
            data = values
        batches = [
            _make(name).privatize(part, rng=np.random.default_rng(seed))
            for seed, part in enumerate(np.array_split(data, 2))
        ]
        shard_a.ingest(batches[0])
        shard_b.ingest(batches[1])
        combined.ingest(batches[0])
        combined.ingest(batches[1])
        merged = shard_a.merge(shard_b).estimate()
        np.testing.assert_allclose(merged, combined.estimate())

    def test_scalar_merge(self, values):
        reports = ScalarMeanEstimator(1.0, mechanism="pm").privatize(
            values, rng=np.random.default_rng(0)
        )
        shard_a = ScalarMeanEstimator(1.0, mechanism="pm")
        shard_b = ScalarMeanEstimator(1.0, mechanism="pm")
        shard_a.ingest(reports[:2500])
        shard_b.ingest(reports[2500:])
        combined = ScalarMeanEstimator(1.0, mechanism="pm")
        combined.ingest(reports)
        assert shard_a.merge(shard_b).estimate() == pytest.approx(
            combined.estimate()
        )

    def test_merge_rejects_different_params(self):
        with pytest.raises(ValueError, match="different parameters"):
            SWEstimator(1.0, d=32).merge(SWEstimator(2.0, d=32))

    def test_merge_rejects_different_types(self):
        with pytest.raises(TypeError, match="cannot merge"):
            SWEstimator(1.0, d=64).merge(CFOBinning(1.0, d=64))

    def test_merge_into_itself_rejected(self, values):
        """A self-merge would double every count; it fails and changes nothing."""
        est = SWEstimator(1.0, d=32)
        est.partial_fit(values[:1000], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="itself"):
            est.merge(est)
        assert est.n_reports == 1000

    def test_server_merge_shards(self, values):
        shard_a = CollectionServer("round", "sw-ems", 1.0, 32)
        shard_b = CollectionServer("round", "sw-ems", 1.0, 32)
        whole = CollectionServer("round", "sw-ems", 1.0, 32)
        payload_a = whole.encode(
            whole.privatize(values[:3000], rng=np.random.default_rng(0)), format="jsonl"
        )
        payload_b = whole.encode(
            whole.privatize(values[3000:], rng=np.random.default_rng(1)), format="jsonl"
        )
        shard_a.ingest_feed(payload_a)
        shard_b.ingest_feed(payload_b)
        whole.ingest_feed(payload_a)
        whole.ingest_feed(payload_b)
        merged = shard_a.merge(shard_b)
        assert merged.n_reports == whole.n_reports
        np.testing.assert_allclose(merged.estimate(), whole.estimate())

    def test_server_merge_rejects_round_mismatch(self):
        with pytest.raises(ValueError, match="round"):
            CollectionServer("a", "sw-ems", 1.0, 32).merge(
                CollectionServer("b", "sw-ems", 1.0, 32)
            )


class TestStateSerialization:
    """to_state()/from_state() survive a JSON round trip with state intact."""

    @pytest.mark.parametrize(
        "name",
        [
            "sw-ems",
            "sw-em",
            "sw-discrete-ems",
            "cfo-16",
            "hh",
            "hh-admm",
            "haar-hrr",
            "grr",
            "olh",
            "sr",
            "pm",
        ],
    )
    def test_round_trip_preserves_estimate(self, name, values):
        spec_kind = make_estimator(name, 1.0, 64).kind
        est = _make(name)
        if spec_kind == "frequency":
            data = np.random.default_rng(3).integers(0, 64, 4000)
        else:
            data = values
        est.partial_fit(data, rng=np.random.default_rng(11))
        payload = json.loads(json.dumps(est.to_state()))
        restored = Estimator.from_state(payload)
        assert type(restored) is type(est)
        np.testing.assert_allclose(restored.estimate(), est.estimate())

    def test_round_trip_preserves_non_default_parameters(self):
        original = SWEstimator(1.5, d=128, b=0.2, postprocess="em", max_iter=500)
        restored = Estimator.from_state(json.loads(json.dumps(original.to_state())))
        assert restored._params() == original._params()
        np.testing.assert_array_equal(
            restored.transition_matrix, original.transition_matrix
        )

    def test_cfo_payload_with_an_em_param_is_refused(self, values):
        """CFO binning is Norm-Sub only. Every CFO payload written while it
        had an EM mode carries ``em`` (``None`` when off) and no longer
        loads; without the key, the same payload loads and estimates."""
        est = CFOBinning(1.0, d=64, bins=16)
        est.partial_fit(values[:500], rng=np.random.default_rng(3))
        payload = json.loads(json.dumps(est.to_state()))
        payload["params"]["em"] = None
        with pytest.raises(TypeError, match="em"):
            Estimator.from_state(payload)
        del payload["params"]["em"]
        np.testing.assert_array_equal(
            Estimator.from_state(payload).estimate(), est.estimate()
        )

    def test_restored_shard_can_keep_ingesting(self, values):
        """The serialized shard state is live, not a frozen snapshot."""
        est = SWEstimator(1.0, d=32)
        est.partial_fit(values[:2000], rng=np.random.default_rng(0))
        restored = Estimator.from_state(est.to_state())
        restored.partial_fit(values[2000:], rng=np.random.default_rng(1))
        est.partial_fit(values[2000:], rng=np.random.default_rng(1))
        np.testing.assert_allclose(restored.estimate(), est.estimate())

    def test_merge_of_deserialized_shards(self, values):
        """Shards can round-trip through JSON and still merge exactly."""
        reports = SWEstimator(1.0, d=32).privatize(
            values, rng=np.random.default_rng(1)
        )
        shard_a = SWEstimator(1.0, d=32)
        shard_b = SWEstimator(1.0, d=32)
        shard_a.ingest(reports[:3000])
        shard_b.ingest(reports[3000:])
        a2 = Estimator.from_state(json.loads(json.dumps(shard_a.to_state())))
        b2 = Estimator.from_state(json.loads(json.dumps(shard_b.to_state())))
        merged = a2.merge(b2).estimate()
        np.testing.assert_allclose(
            merged, SWEstimator(1.0, d=32).aggregate(reports)
        )

    def test_smooth_wave_estimator_state_and_merge(self, values):
        """WaveEstimator serializes/merges for every wave shape, not just SW."""
        from repro.core.pipeline import WaveEstimator
        from repro.core.waves import make_wave

        for shape in ("triangle", "cosine", "epanechnikov"):
            est = WaveEstimator(make_wave(shape, 1.0), d=16)
            est.partial_fit(values[:1500], rng=np.random.default_rng(0))
            restored = Estimator.from_state(json.loads(json.dumps(est.to_state())))
            np.testing.assert_allclose(restored.estimate(), est.estimate())
            other = WaveEstimator(make_wave(shape, 1.0), d=16)
            other.partial_fit(values[1500:3000], rng=np.random.default_rng(1))
            est.merge(other)
            assert est.n_reports == 3000

    def test_server_state_round_trip(self, values):
        server = CollectionServer("r9", "sw-ems", 1.0, 32)
        server.ingest_reports(server.privatize(values, rng=np.random.default_rng(0)))
        payload = json.loads(json.dumps(server.to_state()))
        restored = CollectionServer.from_state(payload)
        assert restored.round_id == "r9"
        assert restored.n_reports == server.n_reports
        np.testing.assert_allclose(restored.estimate(), server.estimate())

    def test_rejects_non_estimator_class(self):
        with pytest.raises(ValueError, match="not an Estimator"):
            Estimator.from_state(
                {"class": "builtins:dict", "params": {}, "state": {}}
            )

    def test_rejects_non_class_path(self):
        """A function path must raise ValueError, not leak a TypeError."""
        with pytest.raises(ValueError, match="not an Estimator"):
            Estimator.from_state(
                {
                    "class": "repro.api.registry:make_estimator",
                    "params": {},
                    "state": {},
                }
            )

    def test_rejects_non_mechanism_class_in_spec(self):
        """A hostile mechanism spec must be refused before instantiation."""
        payload = SWEstimator(1.0, d=16).to_state()
        payload["class"] = "repro.core.pipeline:WaveEstimator"
        payload["params"] = dict(payload["params"])
        payload["params"].pop("epsilon", None)
        payload["params"].pop("b", None)
        payload["params"]["d_out"] = 16
        payload["params"]["mechanism"] = {
            "__mechanism__": True,
            "class": "subprocess:Popen",
            "params": {"args": ["true"]},
        }
        with pytest.raises(ValueError, match="not a Mechanism"):
            Estimator.from_state(payload)


class TestReprs:
    def test_estimator_reprs_are_self_describing(self):
        r = repr(SWEstimator(1.0, d=64))
        assert r.startswith(
            "SWEstimator(epsilon=1.0, d=64, d_out=64, postprocess='ems', b="
        )
        r = repr(DiscreteSWEstimator(1.0, d=64))
        assert "epsilon=1.0" in r and "d=64" in r and "postprocess='ems'" in r
        r = repr(CFOBinning(1.0, d=64, bins=16))
        assert "bins=16" in r and "norm-sub" in r
        r = repr(HierarchicalHistogram(1.0, d=64))
        assert "branching=4" in r and "split='population'" in r
        r = repr(HHADMM(2.0, d=64))
        assert "epsilon=2.0" in r
        r = repr(HaarHRR(1.0, d=64))
        assert r == "HaarHRR(epsilon=1.0, d=64)"
        r = repr(ScalarMeanEstimator(1.0, mechanism="sr"))
        assert "mechanism='sr'" in r
        r = repr(OLH(1.0, 32))
        assert "g=" in r and "d=32" in r

    def test_server_repr(self):
        r = repr(CollectionServer("survey", "sw-ems", 1.0, 32))
        assert "round_id='survey'" in r and "n_reports=0" in r
