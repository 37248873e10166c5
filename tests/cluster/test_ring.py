"""Property tests for the consistent-hash ring and prefix placement.

The ring's contract has three legs the cluster layer leans on:

* **balance** — with enough keys per shard, no shard's load strays far
  from the mean (the router never rebalances a fresh cluster, so the
  ring's spread *is* the cluster's spread);
* **determinism** — lookups are a pure function of (shard set, key):
  rebuild order, process boundaries and insertion order must not
  matter (this is why the ring hashes with SHA-1, not the
  per-process-salted builtin ``hash()``);
* **minimal remapping** — adding a shard only pulls keys *onto* the
  new shard.  Everything else stays put.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import (
    HashRing,
    PrefixPlacement,
    round_robin_table,
    stable_hash,
)

shard_sets = st.sets(st.integers(0, 10**6), min_size=2, max_size=12)


def client_keys(count: int):
    return [f"/c{index}" for index in range(count)]


@settings(max_examples=25, deadline=None)
@given(shard_ids=shard_sets)
def test_ring_balance_bounded(shard_ids):
    """Max shard load stays within 2x the mean at 100 keys/shard."""
    ring = HashRing(sorted(shard_ids))
    keys = client_keys(100 * len(shard_ids))
    counts = {shard_id: 0 for shard_id in shard_ids}
    for key in keys:
        counts[ring.shard_for(key)] += 1
    mean = len(keys) / len(shard_ids)
    assert max(counts.values()) <= 2.0 * mean


@settings(max_examples=50, deadline=None)
@given(shard_ids=shard_sets, data=st.data())
def test_ring_lookup_deterministic(shard_ids, data):
    """Same shard set => same mapping, whatever the insertion order."""
    ordered = sorted(shard_ids)
    shuffled = data.draw(st.permutations(ordered))
    ring_a = HashRing(ordered)
    ring_b = HashRing(shuffled)
    for key in client_keys(64):
        assert ring_a.shard_for(key) == ring_b.shard_for(key)


@settings(max_examples=50, deadline=None)
@given(shard_ids=shard_sets, new_shard=st.integers(0, 10**6))
def test_ring_add_remaps_minimally(shard_ids, new_shard):
    """Adding a shard only moves keys onto the new shard."""
    if new_shard in shard_ids:
        return
    keys = client_keys(200)
    ring = HashRing(sorted(shard_ids))
    before = {key: ring.shard_for(key) for key in keys}
    ring.add_shard(new_shard)
    for key in keys:
        after = ring.shard_for(key)
        assert after == before[key] or after == new_shard


def test_stable_hash_is_not_builtin_hash():
    """Pinned values: SHA-1-derived, identical across processes."""
    assert stable_hash("/c0") == stable_hash("/c0")
    assert stable_hash("/c0") != stable_hash("/c1")
    # A pinned literal guards against someone swapping the hash
    # function (which would silently remap every deployed cluster).
    assert stable_hash("shard-0:0") == 0x81EA1B4AE4C0690D


def test_ring_rejects_duplicates_and_empty_lookup():
    ring = HashRing([1, 2])
    with pytest.raises(ValueError):
        ring.add_shard(1)
    empty = HashRing()
    with pytest.raises(ValueError):
        empty.shard_for("/c0")


def test_prefix_placement_longest_match_and_pin():
    placement = PrefixPlacement({"/c1": 1, "/c12": 2}, default=0)
    assert placement.shard_for("/c12") == 2  # longest prefix wins
    assert placement.shard_for("/c1") == 1
    assert placement.shard_for("/c9") == 0  # default


def test_round_robin_table_is_exactly_balanced():
    table = round_robin_table(client_keys(8), [0, 1])
    placement = PrefixPlacement(table)
    counts = {0: 0, 1: 0}
    for key in client_keys(8):
        counts[placement.shard_for(key)] += 1
    assert counts == {0: 4, 1: 4}
