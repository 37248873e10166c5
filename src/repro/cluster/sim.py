"""The cluster simulation driver: shard groups, workers, merged results.

**Determinism rules** (DESIGN.md §10 is the contract; this module is
the implementation):

1. Shards are partitioned into **groups**: the source and target of a
   migration share one group (and therefore one :class:`~repro.sim.
   clock.SimClock`, one :class:`~repro.obs.Telemetry` and one shared
   ready queue, so the cutover barrier is a plain event ordering); every
   other shard is a singleton group with its own private clock.  Groups
   never share state, which is what makes them embarrassingly parallel.
2. Client ``i``'s request stream is derived from ``(seed, i)`` alone —
   never from its shard — so placement and migration cannot change
   *what* a client asks for, only *where* it is served.
3. Groups always run through :func:`repro.harness.parallel.run_tasks`
   and their telemetry totals are always folded with
   :func:`~repro.harness.parallel.merge_metric_samples`, in group
   order, whatever ``--jobs`` is.  ``--jobs N`` output is therefore
   byte-identical to ``--jobs 1`` — the same merge arithmetic runs on
   the same per-group results either way.

Each shard is a full LFS rig (own simulated disk, cache, cleaner).
After its group's event loop drains, the shard is checkpointed,
unmounted, hashed (SHA-256 of the device image) and verified with
:func:`repro.lfs.verify.verify_lfs`, so every cluster run ends with a
per-shard consistency proof.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.migrate import ShardMigrator
from repro.cluster.router import ShardRouter
from repro.obs import Telemetry
from repro.rig import new_rig
from repro.service.config import SERVICE_LFS_CONFIG
from repro.service.scheduler import (
    ClientStream,
    RequestScheduler,
    run_events,
)
from repro.service.stats import percentile
from repro.units import MIB

DEFAULT_SHARD_BYTES = 64 * MIB


def build_groups(config: ClusterConfig) -> List[Tuple[int, ...]]:
    """Partition shard ids into deterministic groups: each migration's
    source and target form a pair, every other shard stays singleton.
    Groups come in order of their lowest shard id.  (``ClusterConfig``
    refuses a shard in two migrations, so pairs never overlap.)"""
    partner: Dict[int, int] = {}
    for spec in config.migrations:
        partner[spec.source] = spec.target
        partner[spec.target] = spec.source
    groups: List[Tuple[int, ...]] = []
    for shard_id in range(config.shards):
        other = partner.get(shard_id)
        if other is None:
            groups.append((shard_id,))
        elif shard_id < other:
            groups.append((shard_id, other))
    return groups


def run_group(
    config: ClusterConfig,
    shard_ids: Tuple[int, ...],
    assignment: Tuple[Tuple[int, Tuple[int, ...]], ...],
    total_bytes: int = DEFAULT_SHARD_BYTES,
) -> Dict[str, Any]:
    """Run one shard group to completion (worker-process entry point).

    ``assignment`` is ``((shard_id, (client ids...)), ...)`` for the
    group's shards.  Returns a picklable result: per-shard stats, image
    hash and verify findings, the group's merged telemetry totals, and
    summaries of any migrations that ran.
    """
    from collections import deque

    from repro.harness.parallel import export_telemetry_totals
    from repro.lfs.verify import verify_lfs
    from repro.sim.clock import SimClock

    # A finished group's rigs (device image, cache, span tree) are one
    # big reference cycle; free them before building the next group's,
    # so peak memory is one group's and not a matter of collector timing.
    gc.collect()
    clock = SimClock()
    telemetry = Telemetry(clock=clock)
    ready: deque = deque()
    assigned = dict(assignment)
    schedulers: Dict[int, RequestScheduler] = {}
    for shard_id in shard_ids:
        client_ids = assigned[shard_id]
        service_config = config.shard_service_config(len(client_ids))
        clients = [
            ClientStream(cid, service_config) for cid in client_ids
        ]
        rig = new_rig(
            "lfs",
            total_bytes=total_bytes,
            lfs_config=SERVICE_LFS_CONFIG,
            telemetry=telemetry,
            clock=clock,
            service=service_config,
        )
        schedulers[shard_id] = RequestScheduler(
            rig.fs,
            service_config,
            telemetry=telemetry,
            clients=clients,
            ready=ready,
        )
    migrators = [
        ShardMigrator(
            spec,
            schedulers[spec.source],
            schedulers[spec.target],
            telemetry=telemetry,
        )
        for spec in config.migrations
        if spec.source in schedulers
    ]
    for migrator in migrators:
        migrator.arm()
    solo = len(shard_ids) == 1
    for shard_id in shard_ids:
        schedulers[shard_id].start(open_run_span=solo)
    run_events(clock, ready)
    shards: List[Dict[str, Any]] = []
    for shard_id in shard_ids:
        scheduler = schedulers[shard_id]
        stats = scheduler.finish()
        fs = scheduler.fs
        fs.checkpoint()
        fs.disk.drain()
        fs.unmount()
        device = fs.disk.device
        image = device.read(0, device.num_sectors)  # a view, not a copy
        report = verify_lfs(device)
        shards.append(
            {
                "shard": shard_id,
                "clients": len(scheduler.clients),
                "stats": stats,
                "image_sha": hashlib.sha256(image).hexdigest(),
                "verify_errors": list(report.errors),
            }
        )
    return {
        "shards": shards,
        "telemetry": export_telemetry_totals(telemetry),
        "migrations": [migrator.summary for migrator in migrators],
    }


@dataclass
class ClusterResult:
    """Merged outcome of one cluster run."""

    config: ClusterConfig
    shards: List[Dict[str, Any]] = field(default_factory=list)
    migrations: List[Dict[str, Any]] = field(default_factory=list)
    telemetry: Optional[Telemetry] = None

    @property
    def completed(self) -> int:
        return sum(row["stats"].completed for row in self.shards)

    @property
    def elapsed(self) -> float:
        """Cluster wall time: the slowest shard (shards run in
        parallel in real deployments; each group has its own clock)."""
        return max(
            (row["stats"].elapsed for row in self.shards), default=0.0
        )

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed else 0.0

    def all_latencies(self) -> List[float]:
        merged: List[float] = []
        for row in self.shards:
            merged.extend(row["stats"].all_latencies())
        return merged

    def p99(self) -> float:
        return percentile(self.all_latencies(), 0.99)

    def p50(self) -> float:
        return percentile(self.all_latencies(), 0.50)

    @property
    def consistent(self) -> bool:
        return all(not row["verify_errors"] for row in self.shards)

    def render(self) -> str:
        """Deterministic human-readable summary (the determinism test
        pins this text byte-for-byte across ``--jobs`` values)."""
        config = self.config
        lines = [
            f"== cluster-sim: {config.shards} shards, "
            f"{config.clients} clients, seed {config.seed}, "
            f"placement hash =="
        ]
        for row in self.shards:
            stats = row["stats"]
            verdict = (
                "ok" if not row["verify_errors"]
                else f"{len(row['verify_errors'])} errors"
            )
            lines.append(
                f"  shard {row['shard']}: clients={row['clients']} "
                f"completed={stats.completed} "
                f"throughput={stats.throughput:.1f} req/s "
                f"p99={stats.p99() * 1000:.3f}ms verify={verdict}"
            )
        for summary in self.migrations:
            lines.append(
                f"  migration {summary['source']}->{summary['target']} "
                f"at t={summary['at']:.3f}: {summary['clients']} clients, "
                f"{summary['files']} files, {summary['bytes']} bytes, "
                f"{summary['redirected']} redirected, "
                f"cutover t={summary['cutover']:.6f}"
            )
        lines.append(
            f"  cluster: completed={self.completed} "
            f"elapsed={self.elapsed:.6f}s "
            f"throughput={self.throughput:.1f} req/s "
            f"p50={self.p50() * 1000:.3f}ms "
            f"p99={self.p99() * 1000:.3f}ms"
        )
        for row in self.shards:
            lines.append(
                f"  image shard{row['shard']}: {row['image_sha']}"
            )
        return "\n".join(lines)


def run_cluster(
    config: ClusterConfig,
    jobs: int = 1,
    total_bytes: int = DEFAULT_SHARD_BYTES,
) -> ClusterResult:
    """Route, run every shard group, and merge — identically for any
    ``jobs`` value."""
    from repro.harness.parallel import merge_metric_samples, run_tasks

    assignments = ShardRouter(config).assignments()
    groups = build_groups(config)
    tasks = [
        (
            config,
            group,
            tuple(
                (shard_id, tuple(assignments[shard_id]))
                for shard_id in group
            ),
            total_bytes,
        )
        for group in groups
    ]
    results = run_tasks(run_group, tasks, jobs=jobs)
    merged = Telemetry()
    merged.gauge("cluster.shards").set(config.shards)
    result = ClusterResult(config=config, telemetry=merged)
    for group_result in results:
        merge_metric_samples(merged, group_result["telemetry"])
        result.shards.extend(group_result["shards"])
        result.migrations.extend(group_result["migrations"])
    result.shards.sort(key=lambda row: row["shard"])
    result.migrations.sort(key=lambda summary: summary["at"])
    return result


__all__ = [
    "ClusterResult",
    "DEFAULT_SHARD_BYTES",
    "build_groups",
    "run_cluster",
    "run_group",
]
