"""Deterministic placement of ``(round, attr)`` keys on shard aggregators.

:class:`HashRing` is a consistent-hash ring over ``(round, attr)`` keys.
Hashes are BLAKE2b digests, not Python's per-process-salted ``hash()``,
so placement is identical across processes and restarts — every
uploader, shard, and replayed test routes a block to the same shard.
Virtual nodes keep the key space evenly spread for small shard counts,
and growing the ring moves only the keys that land on the new shard's
points (the consistent-hashing contract).

Every key lives wholly on its home shard, so the merge tier reads one
server per attribute and no recombination is needed. The ring is a pure
function of the shard count: no service state, no clocks.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b

__all__ = ["HashRing", "stable_hash"]

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

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        points: list[tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(_VNODES):
                points.append((stable_hash("shard", str(shard), str(replica)), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, round_id: str, attr: str) -> int:
        """The shard id owning ``(round_id, attr)``: its home shard."""
        key = stable_hash("key", round_id, attr)
        return self._owners[bisect_right(self._points, key) % len(self._points)]
