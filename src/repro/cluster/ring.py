"""Placement policies: consistent-hash ring and directory prefixes.

The cluster layer partitions the namespace at the top-level directory
(each service client owns ``/cN``, so the client's directory is the
placement key).  Two interchangeable policies decide which shard serves
a key:

* :class:`HashRing` — classic consistent hashing.  Each shard
  contributes :data:`DEFAULT_REPLICAS` virtual points on a 64-bit ring
  (SHA-1 of ``shard-<id>:<replica>``); a key lands on the first point
  clockwise from its own hash.  Adding a shard only remaps the keys
  that fall between its new points — the minimal-disruption property
  the hypothesis suite pins.
* :class:`PrefixPlacement` — an explicit longest-prefix-match table,
  for operators who want deterministic pinning (and for tests that
  need an exactly balanced assignment).

Hashes are SHA-1, **never** the builtin ``hash()`` — Python salts
string hashing per process, which would silently break cross-run and
cross-worker determinism.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

DEFAULT_REPLICAS = 64
"""Virtual ring points per shard."""


def stable_hash(key: str) -> int:
    """64-bit stable hash of ``key`` (first 8 bytes of SHA-1)."""
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids: Iterable[int] = ()) -> None:
        self._shards: set = set()
        self._points: List[Tuple[int, int]] = []  # (ring point, shard)
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    def add_shard(self, shard_id: int) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)
        for replica in range(DEFAULT_REPLICAS):
            point = stable_hash(f"shard-{shard_id}:{replica}")
            bisect.insort(self._points, (point, shard_id))

    def shard_for(self, key: str) -> int:
        """The shard serving ``key``: first ring point at or clockwise
        of the key's hash, wrapping at the top of the ring."""
        if not self._points:
            raise ValueError("lookup on an empty ring")
        index = bisect.bisect_left(self._points, (stable_hash(key), -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class PrefixPlacement:
    """Longest-prefix-match placement over an explicit table."""

    def __init__(
        self, table: Dict[str, int], default: int = 0
    ) -> None:
        # Longest prefix first, then lexicographic — fully deterministic
        # match order even for equal-length prefixes.
        self._table: List[Tuple[str, int]] = sorted(
            table.items(), key=lambda item: (-len(item[0]), item[0])
        )
        self.default = default

    def shard_for(self, key: str) -> int:
        for prefix, shard_id in self._table:
            if key.startswith(prefix):
                return shard_id
        return self.default


def round_robin_table(
    keys: Sequence[str], shard_ids: Sequence[int]
) -> Dict[str, int]:
    """An exactly balanced prefix table: key ``i`` → shard ``i % N``."""
    return {
        key: shard_ids[index % len(shard_ids)]
        for index, key in enumerate(keys)
    }


__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "PrefixPlacement",
    "round_robin_table",
    "stable_hash",
]
