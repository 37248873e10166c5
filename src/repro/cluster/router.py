"""The shard router: a cluster run's initial client placement.

A :class:`ShardRouter` turns the consistent-hash ring
(:mod:`repro.cluster.ring`) into the client→shard table a cluster run
starts from.  It is consulted once, before any shard group runs; a
live migration does not edit it but hands the moving clients from the
source scheduler to the target one at its cutover barrier
(:mod:`repro.cluster.migrate`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.config import ClusterConfig
from repro.cluster.ring import HashRing


def client_key(client_id: int) -> str:
    """The placement key for a client: its private directory."""
    return f"/c{client_id}"


class ShardRouter:
    """Initial client→shard placement for one cluster run."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.policy = HashRing(range(config.shards))
        self._route: Dict[int, int] = {
            cid: self.policy.shard_for(client_key(cid))
            for cid in range(config.clients)
        }

    def shard_of(self, client_id: int) -> int:
        return self._route[client_id]

    def assignments(self) -> Dict[int, List[int]]:
        """Shard → sorted client ids map (every shard present,
        including empty ones)."""
        table: Dict[int, List[int]] = {
            shard_id: [] for shard_id in range(self.config.shards)
        }
        for cid in sorted(self._route):
            table[self._route[cid]].append(cid)
        return table


__all__ = ["ShardRouter", "client_key"]
