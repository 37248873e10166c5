"""``repro.cluster`` — the sharded scale-out layer.

A :class:`~repro.cluster.router.ShardRouter` places the namespace (one
service client directory per key) across N independent LFS volumes at
the start of a run, via a consistent-hash
:class:`~repro.cluster.ring.HashRing`.  Each shard is a
complete single-volume rig (scheduler, admission control, group
commit, cleaner); :mod:`repro.cluster.sim` runs them as deterministic
shard groups, optionally in parallel worker processes, and
:mod:`repro.cluster.migrate` rebalances a live shard onto another
mid-run, handing its clients over to the target in one atomic cutover.

See DESIGN.md §10 for the architecture and the determinism rules.
"""

from repro.cluster.config import ClusterConfig, MigrationSpec
from repro.cluster.migrate import ShardMigrator
from repro.cluster.ring import HashRing, stable_hash
from repro.cluster.router import ShardRouter, client_key
from repro.cluster.sim import (
    ClusterResult,
    build_groups,
    run_cluster,
    run_group,
)

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "HashRing",
    "MigrationSpec",
    "ShardMigrator",
    "ShardRouter",
    "build_groups",
    "client_key",
    "run_cluster",
    "run_group",
    "stable_hash",
]
