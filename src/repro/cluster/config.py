"""Cluster-layer configuration: shards, clients, planned migrations.

A :class:`ClusterConfig` describes one scale-out run: how many LFS
volumes (shards), how many global clients (placed on shards by the
consistent-hash ring, see :mod:`repro.cluster.router`), and any
:class:`MigrationSpec` rebalances scheduled to fire mid-run.  Like :class:`~repro.service.config.
ServiceConfig`, everything is simulated time and the whole run is a
pure function of ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import InvalidArgumentError
from repro.service.config import ServiceConfig

@dataclass(frozen=True)
class MigrationSpec:
    """One planned rebalance: move every client of ``source`` onto
    ``target``, starting ``at`` simulated seconds after serving
    begins (setup — mkfs, prefill — consumes clock time first)."""

    source: int
    target: int
    at: float

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise InvalidArgumentError(
                f"migration source == target: {self.source}"
            )
        if self.at < 0:
            raise InvalidArgumentError(
                f"migration time must be >= 0: at={self.at}"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Tunable parameters of one sharded cluster run."""

    shards: int = 4
    """Independent LFS volumes behind the router."""

    clients: int = 64
    """Global client streams, partitioned across shards by the ring."""

    seed: int = 0
    """Master seed; client ``i`` derives its stream from (seed, i)
    exactly as in a single-volume run, so a client's request sequence
    does not depend on which shard serves it."""

    requests_per_client: int = 40

    migrations: Tuple[MigrationSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InvalidArgumentError(
                f"need at least one shard: {self.shards}"
            )
        if self.clients < 1:
            raise InvalidArgumentError(
                f"need at least one client: {self.clients}"
            )
        seen: Dict[int, float] = {}
        for spec in self.migrations:
            for shard_id in (spec.source, spec.target):
                if not 0 <= shard_id < self.shards:
                    raise InvalidArgumentError(
                        f"migration references shard {shard_id}, but the "
                        f"cluster has shards 0..{self.shards - 1}"
                    )
                if shard_id in seen:
                    raise InvalidArgumentError(
                        f"shard {shard_id} appears in more than one "
                        f"migration; one rebalance per shard per run"
                    )
                seen[shard_id] = spec.at

    def shard_service_config(self, num_clients: int) -> ServiceConfig:
        """The per-shard service config for a shard serving
        ``num_clients`` of the global streams; every other field keeps
        its single-volume default."""
        return ServiceConfig(
            seed=self.seed,
            num_clients=max(1, num_clients),
            requests_per_client=self.requests_per_client,
        )


__all__ = ["ClusterConfig", "MigrationSpec"]
