"""ShardRouter: seeding, coverage, config validation."""

import pytest

from repro.cluster import ClusterConfig, ShardRouter, client_key
from repro.errors import InvalidArgumentError


def test_assignments_partition_all_clients():
    config = ClusterConfig(shards=4, clients=64)
    router = ShardRouter(config)
    table = router.assignments()
    assert sorted(table) == [0, 1, 2, 3]
    everyone = [cid for cids in table.values() for cid in cids]
    assert sorted(everyone) == list(range(64))
    for cid in range(64):
        assert cid in table[router.shard_of(cid)]


def test_hash_routing_matches_policy_and_is_stable():
    config = ClusterConfig(shards=4, clients=32)
    again = ShardRouter(ClusterConfig(shards=4, clients=32))
    router = ShardRouter(config)
    for cid in range(32):
        assert router.shard_of(cid) == again.shard_of(cid)
        assert router.shard_of(cid) == router.policy.shard_for(
            client_key(cid)
        )


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        ClusterConfig(shards=0)
    from repro.cluster import MigrationSpec

    with pytest.raises(InvalidArgumentError):
        MigrationSpec(1, 1, 0.5)
    with pytest.raises(InvalidArgumentError):
        ClusterConfig(shards=2, migrations=(MigrationSpec(0, 5, 0.1),))
    with pytest.raises(InvalidArgumentError):
        ClusterConfig(
            shards=3,
            migrations=(
                MigrationSpec(0, 1, 0.1),
                MigrationSpec(1, 2, 0.2),
            ),
        )
