"""Block cache with dirty tracking and LRU eviction.

Blocks are keyed by :class:`~repro.common.inode.BlockKey` — (owner inode,
kind, index) — because in LFS a block has no stable disk address to key
by: every write relocates it.  The payload is either raw bytes (data and
directory blocks) or a mutable list of u64 disk addresses (pointer
blocks), so the :class:`~repro.common.inode.BlockMap` can edit pointer
blocks in place.

Eviction only ever removes *clean data* blocks: dirty blocks must first
be written back by the owning file system, and metadata blocks (pointer
blocks, inode-map blocks) stay resident, matching the paper's assumption
that "blocks mapping active files will stay memory resident" (§4.2.1).

LRU order is *stamp* order: inserts and hits take the next value of a
counter that only grows.  Victims come off a min-heap of ``(stamp,
block)`` with at most one entry per clean data/inode block, pushed by a
clean ``insert`` and by ``mark_clean`` only, so an entry's stamp is a
lower bound on its block's; one found out of date on pop is pushed back
(block hit since) or dropped (dirty or gone).  Nothing walks the cache.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.common.inode import BlockKey, BlockKind
from repro.errors import InvalidArgumentError
from repro.obs import NULL_TELEMETRY, Telemetry

Payload = Union[bytearray, List[int]]

# Shared zero source for padding short blocks without allocating a fresh
# bytes object per block; slicing a memoryview is copy-free.
_ZERO_PAD = memoryview(bytes(64 * 1024))

# Pointer, inode-map and usage blocks stay resident (§4.2.1); data and
# packed-inode blocks are fair game once clean.
_EVICTABLE_KINDS = (BlockKind.DATA, BlockKind.INODE)

_BY_STAMP = attrgetter("stamp")


@dataclass
class CacheBlock:
    """One cached block."""

    key: BlockKey
    payload: Payload
    dirty: bool = False
    dirty_since: float = 0.0
    stamp: int = 0
    """Recency: the larger, the more recently inserted or hit."""
    queued: bool = False
    """Whether the eviction heap holds an entry for this block."""

    def as_bytes(self, block_size: int) -> bytes:
        """Serialized block contents, zero-padded to ``block_size``."""
        if isinstance(self.payload, list):
            return struct.pack(f"<{len(self.payload)}Q", *self.payload)
        data = bytes(self.payload)
        if len(data) < block_size:
            data += b"\x00" * (block_size - len(data))
        return data

    def write_into(self, out: memoryview, block_size: int) -> None:
        """Serialize into ``out`` (``block_size`` writable bytes).

        The zero-copy twin of :meth:`as_bytes`: the segment writer hands
        us a slice of its pooled buffer and we fill it in place, so no
        per-block ``bytes`` object is ever materialized on the write
        path.
        """
        payload = self.payload
        if isinstance(payload, list):
            struct.pack_into(f"<{len(payload)}Q", out, 0, *payload)
            used = len(payload) * 8
        else:
            used = len(payload)
            out[:used] = payload
        if used < block_size:
            pad = block_size - used
            if pad <= len(_ZERO_PAD):
                out[used:block_size] = _ZERO_PAD[:pad]
            else:
                out[used:block_size] = bytes(pad)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class BlockCache:
    """LRU block cache sized in bytes."""

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if capacity_bytes < block_size:
            raise InvalidArgumentError(
                f"cache capacity {capacity_bytes} smaller than one "
                f"{block_size}-byte block"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.clear()
        self._next_stamp = count(1).__next__
        # Operation-count probe: an examined entry is evicted, dropped
        # or (block hit since) pushed back once, so heap_entries_examined
        # <= clean inserts + mark_cleans + hits: O(1) amortized.
        self.heap_entries_examined = 0
        self.stats = CacheStats()
        obs = telemetry or NULL_TELEMETRY
        self._obs_enabled = obs.enabled
        self._m_hits = obs.counter("cache.hits")
        self._m_misses = obs.counter("cache.misses")
        self._m_insertions = obs.counter("cache.insertions")
        self._m_evictions = obs.counter("cache.evictions")
        self._m_dirty_bytes = obs.gauge("cache.dirty_bytes")

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------

    def get(self, key: BlockKey) -> Optional[CacheBlock]:
        block = self._blocks.get(key)
        if block is None:
            self.stats.misses += 1
            if self._obs_enabled:
                self._m_misses.inc()
            return None
        self.stats.hits += 1
        if self._obs_enabled:
            self._m_hits.inc()
        block.stamp = self._next_stamp()
        return block

    def peek(self, key: BlockKey) -> Optional[CacheBlock]:
        """Lookup without touching LRU order or hit statistics."""
        return self._blocks.get(key)

    def contains(self, key: BlockKey) -> bool:
        return key in self._blocks

    def insert(
        self, key: BlockKey, payload: Payload, dirty: bool, now: float
    ) -> CacheBlock:
        """Insert (or replace) a block; evicts clean data blocks if full."""
        if self._dirty.pop(key, None) is not None:
            self._dirty_bytes -= self.block_size
        block = CacheBlock(
            key=key, payload=payload, dirty=dirty, stamp=self._next_stamp()
        )
        # A replaced block's heap entry is dropped when it surfaces.
        self._blocks[key] = block
        self._by_inum.setdefault(key.inum, set()).add(key)
        self.stats.insertions += 1
        if self._obs_enabled:
            self._m_insertions.inc()
        if dirty:
            self._note_dirty(block, now)
        else:
            self._enqueue(block)
            if self._obs_enabled:
                self._m_dirty_bytes.set(self._dirty_bytes)
        self._evict_to_capacity()
        return block

    def mark_dirty(self, key: BlockKey, now: float) -> None:
        block = self._blocks.get(key)
        if block is None:
            raise InvalidArgumentError(f"cannot dirty uncached block {key}")
        if not block.dirty:
            self._note_dirty(block, now)

    def _note_dirty(self, block: CacheBlock, now: float) -> None:
        block.dirty = True
        block.dirty_since = now
        self._dirty[block.key] = block
        self._dirty_bytes += self.block_size
        self._dirty_fifo.append((block.key, now))
        if self._obs_enabled:
            self._m_dirty_bytes.set(self._dirty_bytes)

    def mark_clean(self, key: BlockKey) -> None:
        block = self._blocks.get(key)
        if block is not None and block.dirty:
            block.dirty = False
            del self._dirty[key]
            self._dirty_bytes -= self.block_size
            if self._obs_enabled:
                self._m_dirty_bytes.set(self._dirty_bytes)
            # The block keeps its stamp: it becomes a victim at its old
            # LRU position, not at the tail.
            self._enqueue(block)

    def discard(self, key: BlockKey) -> None:
        """Remove a block outright (e.g. file deleted before write-back)."""
        if self._blocks.pop(key, None) is not None:
            # Its heap entry, if any, is dropped when it surfaces.
            self._forget_key(key)
            if self._dirty.pop(key, None) is not None:
                self._dirty_bytes -= self.block_size
                if self._obs_enabled:
                    self._m_dirty_bytes.set(self._dirty_bytes)

    def _forget_key(self, key: BlockKey) -> None:
        keys = self._by_inum.get(key.inum)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_inum[key.inum]

    def discard_file(self, inum: int) -> int:
        """Drop every cached block owned by ``inum``; returns count."""
        victims = list(self._by_inum.get(inum, ()))
        for key in victims:
            self.discard(key)
        return len(victims)

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    @property
    def used_bytes(self) -> int:
        return len(self._blocks) * self.block_size

    def dirty_blocks(self) -> List[CacheBlock]:
        """All dirty blocks, in LRU (roughly: modification) order."""
        return sorted(self._dirty.values(), key=_BY_STAMP)

    def oldest_dirty_time(self) -> Optional[float]:
        """When the longest-dirty block became dirty (None if all clean)."""
        while self._dirty_fifo:
            key, since = self._dirty_fifo[0]
            block = self._blocks.get(key)
            if block is not None and block.dirty and block.dirty_since == since:
                return since
            self._dirty_fifo.popleft()
        return None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _enqueue(self, block: CacheBlock) -> None:
        """Make a clean block a candidate for eviction."""
        if block.queued or block.key.kind not in _EVICTABLE_KINDS:
            return
        heap = self._heap
        if len(heap) > 2 * len(self._blocks) + 64:
            # Entries of discarded and replaced blocks leave only by
            # being popped, which a cache that never fills never does.
            blocks = self._blocks
            heap[:] = [e for e in heap if blocks.get(e[1].key) is e[1]]
            heapify(heap)
        block.queued = True
        heappush(heap, (block.stamp, block))

    def _evict_to_capacity(self) -> None:
        # A full cache exceeds capacity by one block per insert, so this
        # runs on nearly every insert.  Victims are the clean data/inode
        # blocks in stamp order, the just-inserted one included.  Stamps
        # are unique, so entries never tie and blocks are never compared.
        heap = self._heap
        blocks = self._blocks
        over = self.used_bytes - self.capacity_bytes
        while over > 0 and heap:
            stamp, block = heappop(heap)
            self.heap_entries_examined += 1
            if block.dirty or blocks.get(block.key) is not block:
                block.queued = False
            elif block.stamp != stamp:
                heappush(heap, (block.stamp, block))
            else:
                del blocks[block.key]
                self._forget_key(block.key)
                over -= self.block_size
                self.stats.evictions += 1
                if self._obs_enabled:
                    self._m_evictions.inc()

    def over_capacity(self) -> bool:
        """True when even after eviction the cache exceeds capacity.

        This is the "cache full" write-back trigger from §4.3.5: the
        remaining blocks are dirty and the file system must start a
        segment write to make them clean (and thus evictable).
        """
        return self.used_bytes > self.capacity_bytes

    def drop_clean(self, metadata_too: bool = True) -> int:
        """Drop every clean block (benchmarks' "flush the file cache").

        Dirty blocks always survive — dropping them would lose data.
        """
        victims = [
            key
            for key, block in self._blocks.items()
            if not block.dirty
            and (metadata_too or block.key.kind is BlockKind.DATA)
        ]
        for key in victims:
            # Heap entries are dropped when they surface, as in discard.
            del self._blocks[key]
            self._forget_key(key)
        return len(victims)

    def clear(self) -> None:
        """Forget every block, dirty ones too (a crash loses memory)."""
        self._blocks: Dict[BlockKey, CacheBlock] = {}
        self._by_inum: dict = {}
        self._heap: List[Tuple[int, CacheBlock]] = []
        self._dirty: Dict[BlockKey, CacheBlock] = {}
        self._dirty_bytes = 0
        self._dirty_fifo: Deque[Tuple[BlockKey, float]] = deque()

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return (
            f"BlockCache({len(self._blocks)} blocks, "
            f"dirty={self._dirty_bytes}B/{self.capacity_bytes}B)"
        )
