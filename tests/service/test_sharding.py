"""Consistent-ring placement and exact merge-tree recombination."""

import numpy as np
import pytest

from repro.protocol import CollectionServer
from repro.service.sharding import HashRing, merge_tree, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("r1", "age") == stable_hash("r1", "age")

    def test_concatenation_cannot_collide(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_distinct_keys_differ(self):
        assert stable_hash("r1", "age") != stable_hash("r1", "income")


class TestHashRing:
    def test_placement_is_stable_across_ring_instances(self):
        a = HashRing(4)
        b = HashRing(4)
        keys = [(f"round-{r}", f"attr-{i}") for r in range(5) for i in range(20)]
        assert [a.shard_for(*k) for k in keys] == [b.shard_for(*k) for k in keys]

    def test_every_shard_receives_keys(self):
        ring = HashRing(4)
        owners = {
            ring.shard_for("r", f"attr-{i}") for i in range(200)
        }
        assert owners == {0, 1, 2, 3}

    def test_spread_is_roughly_even(self):
        ring = HashRing(4)
        counts = np.zeros(4)
        for i in range(2000):
            counts[ring.shard_for("r", f"attr-{i}")] += 1
        # Consistent hashing with 64 vnodes: no shard should be starved or
        # hold a majority of a large key population.
        assert counts.min() > 200
        assert counts.max() < 1000

    def test_growing_the_ring_moves_only_some_keys(self):
        small, large = HashRing(3), HashRing(4)
        keys = [("r", f"attr-{i}") for i in range(1000)]
        moved = sum(
            small.shard_for(*k) != large.shard_for(*k) for k in keys
        )
        # Only keys claimed by the new shard's points move; with naive
        # modulo placement ~3/4 of keys would move.
        assert 0 < moved < 600

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            HashRing(0)
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(2, vnodes=0)


def make_shard_servers(n_shards, seed, mechanism="olh", n=600):
    """Identical-config shard servers plus one reference ingesting it all."""
    rng = np.random.default_rng(seed)
    reference = CollectionServer("r", mechanism, 1.0, 32)
    shards = [CollectionServer("r", mechanism, 1.0, 32) for _ in range(n_shards)]
    if mechanism == "olh":
        values = rng.integers(0, 32, size=n)
    else:
        values = rng.random(n)
    for index, shard in enumerate(shards):
        part = values[index::n_shards]
        reports = shard.privatize(part, rng=np.random.default_rng(index))
        shard.ingest_reports(reports)
        reference.ingest_reports(reports)
    return shards, reference


class TestMergeTree:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_tree([])

    def test_single_server_passthrough(self):
        shards, _ = make_shard_servers(1, seed=0)
        assert merge_tree(shards) is shards[0]

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_fold_matches_sequential_merge_bit_exactly(self, n_shards):
        """Up to three shards the pairwise tree IS the sequential fold, so
        the float accumulator sums in the same order: bit-identical."""
        shards, reference = make_shard_servers(n_shards, seed=1)
        folded = merge_tree(shards)
        assert folded.n_reports == reference.n_reports
        np.testing.assert_array_equal(folded.estimate(), reference.estimate())

    @pytest.mark.parametrize("n_shards", [5, 8])
    def test_deep_fold_is_deterministic_and_exact_to_rounding(self, n_shards):
        """Deeper trees reassociate float sums: the answer is deterministic
        (same tree, same inputs -> same bits) and equal to the sequential
        merge to machine rounding."""
        shards, reference = make_shard_servers(n_shards, seed=2)
        again, _ = make_shard_servers(n_shards, seed=2)
        folded = merge_tree(shards)
        np.testing.assert_array_equal(
            folded.estimate(), merge_tree(again).estimate()
        )
        np.testing.assert_allclose(
            folded.estimate(), reference.estimate(), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("mechanism", ["olh", "sw-ems"])
    def test_fold_merges_whole_population(self, mechanism):
        shards, reference = make_shard_servers(4, seed=3, mechanism=mechanism)
        folded = merge_tree(shards)
        assert folded.n_reports == reference.n_reports == 600
        np.testing.assert_allclose(
            folded.estimate(), reference.estimate(), rtol=1e-9, atol=1e-12
        )

    def test_repeated_server_rejected(self):
        """A server listed twice would count its reports twice."""
        shards, _ = make_shard_servers(3, seed=4)
        for members in ([shards[0], shards[0]], [*shards, shards[0]]):
            with pytest.raises(ValueError, match="more than once"):
                merge_tree(members)
        assert [s.n_reports for s in shards] == [200, 200, 200]

    def test_round_mismatch_surfaces(self, rng):
        a = CollectionServer("r1", "olh", 1.0, 16)
        b = CollectionServer("r2", "olh", 1.0, 16)
        for server in (a, b):
            server.ingest_reports(
                server.privatize(rng.integers(0, 16, size=50), rng=rng)
            )
        with pytest.raises(ValueError, match="round"):
            merge_tree([a, b])
