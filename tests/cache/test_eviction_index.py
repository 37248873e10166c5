"""The stamped eviction heap and dirty index pin the *order* the old LRU
walk produced and the *work* per operation — never the clock."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.block_cache import BlockCache
from repro.common.inode import BlockKey, BlockKind, pointer_block

BS = 4096
EVICTABLE = (BlockKind.DATA, BlockKind.INODE)


def data_key(index, inum=1) -> BlockKey:
    return BlockKey(inum, BlockKind.DATA, index)


class WalkOracle:
    """The cache this one replaced: an ``OrderedDict`` in recency order
    (key -> dirty), walked from the LRU head on every insert."""

    def __init__(self, capacity_blocks):
        self.capacity = capacity_blocks
        self.blocks = OrderedDict()
        self.hits = self.misses = self.insertions = self.evictions = 0

    def get(self, key):
        if key in self.blocks:
            self.hits += 1
            self.blocks.move_to_end(key)
        else:
            self.misses += 1

    def insert(self, key, dirty):
        self.blocks.pop(key, None)
        self.blocks[key] = dirty
        self.insertions += 1
        over = max(0, len(self.blocks) - self.capacity)
        walk = (k for k, d in self.blocks.items() if not d and k.kind in EVICTABLE)
        victims = [k for k, _ in zip(walk, range(over))]
        self.evictions += len(victims)
        self._drop(victims)

    def set_dirty(self, key, dirty):
        self.blocks[key] = dirty  # position unchanged

    def discard_file(self, inum):
        return self._drop([k for k in self.blocks if k.inum == inum])

    def drop_clean(self):
        return self._drop([k for k, d in self.blocks.items() if not d])

    def _drop(self, keys):
        for k in keys:
            del self.blocks[k]
        return len(keys)


# Few enough keys that a schedule keeps returning to the same blocks,
# every kind present, the two evictable kinds most often.
keys = st.builds(
    BlockKey,
    st.integers(0, 1),
    st.sampled_from(list(EVICTABLE) * 3 + list(BlockKind)),
    st.integers(0, 2),
)
# Mostly the request path; the ops that empty the cache are rare enough
# for it to fill in between.
ops = st.sampled_from(
    ["insert"] * 8 + ["get"] * 5 + ["mark_dirty"] * 4 + ["mark_clean"] * 4
    + ["discard", "discard_file", "drop_clean"]
)
steps = st.tuples(ops, keys, st.booleans())


class TestSameOrderAsTheWalk:
    @settings(max_examples=120, deadline=None)
    # min_size: hypothesis draws lists of about five steps otherwise,
    # too short to fill even a four-block cache.
    @given(st.integers(4, 8), st.lists(steps, min_size=40, max_size=120))
    def test_victims_dirty_order_and_stats_match_oracle(self, capacity, schedule):
        cache = BlockCache(capacity_bytes=capacity * BS, block_size=BS)
        oracle = WalkOracle(capacity)
        for now, (op, key, flag) in enumerate(schedule):
            if op == "insert":
                cache.insert(key, bytearray(BS), dirty=flag, now=float(now))
                oracle.insert(key, flag)
            elif op == "get":
                cache.get(key)
                oracle.get(key)
            elif op == "mark_dirty":
                if key in oracle.blocks:
                    cache.mark_dirty(key, now=float(now))
                    oracle.set_dirty(key, True)
            elif op == "mark_clean":
                cache.mark_clean(key)
                if key in oracle.blocks:
                    oracle.set_dirty(key, False)
            elif op == "discard":
                cache.discard(key)
                oracle.blocks.pop(key, None)
            elif op == "discard_file":
                assert cache.discard_file(key.inum) == oracle.discard_file(key.inum)
            else:
                assert cache.drop_clean() == oracle.drop_clean()
            # Same residents after every step = same victims, step by
            # step (victims of one insert leave together, in no order).
            assert set(cache._blocks) == set(oracle.blocks)
            assert [b.key for b in cache.dirty_blocks()] == [
                k for k, dirty in oracle.blocks.items() if dirty
            ]
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.insertions, stats.evictions) == (
                oracle.hits, oracle.misses, oracle.insertions, oracle.evictions
            )
            assert cache.dirty_bytes == BS * sum(oracle.blocks.values())

    def test_cleaned_block_is_victim_at_its_old_position(self):
        cache = BlockCache(capacity_bytes=4 * BS, block_size=BS)
        cache.insert(data_key(0), bytearray(BS), dirty=True, now=0.0)
        for i in (1, 2, 3):
            cache.insert(data_key(i), bytearray(BS), dirty=False, now=0.0)
        cache.mark_clean(data_key(0))  # does not move to the tail
        cache.insert(data_key(4), bytearray(BS), dirty=False, now=0.0)
        assert not cache.contains(data_key(0))
        assert cache.contains(data_key(1))


class TestWorkPerOperation:
    def test_dirty_and_pinned_head_is_never_walked(self):
        """``service_clean``'s pathology: dirty and pointer blocks parked
        at the LRU head used to be passed on every insert."""
        cache = BlockCache(capacity_bytes=64 * BS, block_size=BS)
        for i in range(48):
            cache.insert(data_key(i), bytearray(BS), dirty=True, now=0.0)
        for i in range(16):
            cache.insert(
                BlockKey(1, BlockKind.INDIRECT, i), pointer_block(None, BS),
                dirty=False, now=0.0,
            )
        cleans = 0
        for i in range(2000):
            cache.insert(data_key(100 + i), bytearray(BS), dirty=False, now=0.0)
            if i % 100 == 0:  # a flush now and then
                cache.mark_clean(data_key(cleans))
                cleans += 1
        assert cache.stats.evictions == 2000  # one per insert, cache stays full
        assert cache.heap_entries_examined <= (
            cache.stats.insertions + cleans + cache.stats.evictions
        )
        # Exact here: with no hits every entry is popped once, to evict.
        assert cache.heap_entries_examined == cache.stats.evictions

    def test_entries_of_a_reclean_block_do_not_tie(self):
        cache = BlockCache(capacity_bytes=4 * BS, block_size=BS)
        for i in range(4):
            cache.insert(data_key(i), bytearray(BS), dirty=True, now=0.0)
        for _ in range(3):  # clean -> dirty -> clean with no touch between
            for i in range(4):
                cache.mark_clean(data_key(i))
                cache.mark_dirty(data_key(i), now=1.0)
        for i in range(4):
            cache.mark_clean(data_key(i))
        for i in range(4, 12):  # pops every entry; a tie would compare blocks
            cache.insert(data_key(i), bytearray(BS), dirty=False, now=2.0)
        assert [k.index for k in sorted(cache._blocks)] == [8, 9, 10, 11]

    def test_heap_stays_bounded_when_the_cache_never_fills(self):
        cache = BlockCache(capacity_bytes=64 * BS, block_size=BS)
        for i in range(16):
            cache.insert(data_key(i), bytearray(BS), dirty=False, now=0.0)
        for i in range(10_000):
            cache.get(data_key(i % 16))
        for i in range(1_000):
            cache.mark_dirty(data_key(i % 16), now=1.0)
            cache.mark_clean(data_key(i % 16))
        assert len(cache._heap) == 16  # one entry per block, hits push nothing
        for i in range(1_000):  # discarded and replaced blocks leave dead entries
            cache.discard(data_key(17))
            cache.insert(data_key(16), bytearray(BS), dirty=False, now=2.0)
            cache.insert(data_key(17), bytearray(BS), dirty=False, now=2.0)
        assert cache.stats.evictions == 0
        assert len(cache._heap) <= 2 * len(cache) + 65
        for i in range(18, 66):  # two past capacity: sweeping kept the order
            cache.insert(data_key(i), bytearray(BS), dirty=False, now=3.0)
        assert sorted(k.index for k in cache._blocks) == list(range(2, 66))
