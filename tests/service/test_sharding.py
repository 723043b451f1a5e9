"""Consistent-ring placement of ``(round, attr)`` keys."""

import numpy as np
import pytest

from repro.service.sharding import HashRing, stable_hash


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


    def test_single_shard_owns_every_key(self):
        ring = HashRing(1)
        keys = [(f"r{r}", f"attr-{i}") for r in range(5) for i in range(50)]
        assert {ring.shard_for(*k) for k in keys} == {0}

    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    def test_a_grown_ring_moves_keys_only_onto_the_new_shard(self, n_shards):
        """The consistent-hashing contract: adding shard ``n`` takes keys
        from the old shards onto ``n`` and never shuffles the rest."""
        small, large = HashRing(n_shards), HashRing(n_shards + 1)
        keys = [(f"r{r}", f"attr-{i}") for r in range(4) for i in range(250)]
        moved = [k for k in keys if small.shard_for(*k) != large.shard_for(*k)]
        assert moved
        assert {large.shard_for(*k) for k in moved} == {n_shards}

    def test_round_is_part_of_the_key(self):
        """One attribute's rounds spread over every shard, so a long-lived
        attribute does not pin all of its history on one shard."""
        ring = HashRing(4)
        assert {ring.shard_for(f"round-{r}", "age") for r in range(200)} == {0, 1, 2, 3}
