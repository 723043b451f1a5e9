"""Deterministic placement and exact recombination for shard aggregators.

Two pieces of machinery the service tier leans on:

* :class:`HashRing` — a consistent-hash ring over ``(round, attr)`` keys.
  Hashes are BLAKE2b digests, not Python's per-process-salted ``hash()``,
  so placement is identical across processes and restarts — every
  uploader, shard, and replayed test routes a block to the same shard.
  Virtual nodes keep the key space evenly spread for small shard counts,
  and growing the ring moves only the keys that land on the new shard's
  points (the consistent-hashing contract).

* :func:`merge_tree` — a binary fold over per-shard
  :class:`~repro.protocol.server.CollectionServer` snapshots. Estimator
  states are linear sufficient statistics, so the fold is *exact*; the
  tree shape makes the fold ``O(log n)`` deep and — because the input
  order is fixed by shard index — deterministic, which is what lets the
  service promise bit-identical results to a single-server ingest for the
  count-statistic families (integer-valued sums commute exactly in
  float64).

Both are pure functions of their inputs: no service state, no clocks.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Sequence

from repro.protocol.server import CollectionServer

__all__ = ["HashRing", "merge_tree", "stable_hash"]

#: Ring points per shard. Enough that 2-8 shards split the key space to
#: within a few percent; cheap enough that ring construction is instant.
_VNODES = 64


def stable_hash(*parts: str) -> int:
    """64-bit BLAKE2b hash of the joined key parts, stable across processes.

    Parts are length-prefixed before joining so ``("ab", "c")`` and
    ``("a", "bc")`` cannot collide by concatenation.
    """
    h = blake2b(digest_size=8)
    for part in parts:
        raw = part.encode("utf-8")
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    return int.from_bytes(h.digest(), "little")


class HashRing:
    """Consistent hash ring mapping ``(round, attr)`` keys to shard ids."""

    def __init__(self, n_shards: int, *, vnodes: int = _VNODES) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.n_shards = int(n_shards)
        points: list[tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(vnodes):
                points.append((stable_hash("shard", str(shard), str(replica)), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(
        self,
        round_id: str,
        attr: str,
        *,
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> int:
        """The shard id owning ``(round_id, attr)``.

        ``exclude`` routes around dead shards: the ring is walked
        clockwise past excluded owners, so every healthy participant
        agrees on the same fallback without coordination — and when the
        excluded shard recovers, keys snap back to their home placement.
        Raises ``ValueError`` when every shard is excluded.
        """
        key = stable_hash("key", round_id, attr)
        index = bisect_right(self._points, key) % len(self._points)
        if not exclude:
            return self._owners[index]
        if len(exclude) >= self.n_shards:
            raise ValueError("all shards are excluded; nothing can own the key")
        for step in range(len(self._points)):
            owner = self._owners[(index + step) % len(self._points)]
            if owner not in exclude:
                return owner
        raise ValueError("all shards are excluded; nothing can own the key")


def merge_tree(servers: Sequence[CollectionServer]) -> CollectionServer:
    """Fold shard servers pairwise into one, in the given (fixed) order.

    The input servers are consumed: the fold merges right operands into
    left ones level by level — pass snapshots (:meth:`CollectionServer.
    from_state` clones), never live shard aggregators. Raises
    ``ValueError`` on an empty sequence or on a server passed twice (it
    would count its reports twice); round/attr mismatches surface from
    :meth:`CollectionServer.merge` itself.
    """
    layer = list(servers)
    if not layer:
        raise ValueError("merge_tree needs at least one server")
    if len({id(server) for server in layer}) != len(layer):
        raise ValueError("merge_tree got the same server more than once")
    while len(layer) > 1:
        merged = []
        for i in range(0, len(layer) - 1, 2):
            merged.append(layer[i].merge(layer[i + 1]))
        if len(layer) % 2:
            merged.append(layer[-1])
        layer = merged
    return layer[0]
