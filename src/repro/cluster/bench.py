"""Cluster scaling sweep: shards × clients vs throughput and latency.

The ``cluster`` section of ``BENCH_service.json``, which
``python -m repro sweep`` writes: the service scaling sweep
(:mod:`repro.service.bench`) pins the single-volume curve, and this
sweep shows what sharding the namespace buys at client counts a single
volume cannot absorb (it saturates near 16 clients).  The single-shard
64-client point is the scale-out baseline: the same offered load on
one volume.  All numbers are simulated time; each point is a pure
function of the seed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.sim import run_cluster

POINTS: Tuple[Tuple[int, int], ...] = (
    (1, 64),
    (4, 64),
    (8, 128),
    (16, 256),
)
"""The (shards, clients) grid."""
REQUESTS_PER_CLIENT = 25
SEED = 0
SCALE_FLOOR = 3.0
"""Gate: 4 shards at the baseline's offered load must deliver at least
this multiple of the single-volume throughput."""


def sweep_point(shards: int, clients: int, jobs: int) -> Dict[str, object]:
    """One sweep point: a full cluster run, flattened for the report."""
    config = ClusterConfig(
        shards=shards,
        clients=clients,
        seed=SEED,
        requests_per_client=REQUESTS_PER_CLIENT,
    )
    result = run_cluster(config, jobs=jobs)
    return {
        "shards": shards,
        "clients": clients,
        "completed": result.completed,
        "elapsed_seconds": round(result.elapsed, 9),
        "throughput_per_second": round(result.throughput, 6),
        "latency_p50_seconds": round(result.p50(), 9),
        "latency_p99_seconds": round(result.p99(), 9),
        "consistent": result.consistent,
    }


def run_sweep(jobs: int) -> List[Dict[str, object]]:
    """Sweep :data:`POINTS`.

    Parallelism lives *inside* each point (shard groups fan out via
    ``run_tasks``), so the sweep itself runs points sequentially and
    the report is byte-identical for any ``jobs`` value.
    """
    return [sweep_point(shards, clients, jobs) for shards, clients in POINTS]


def scale_gate(points: Sequence[Dict[str, object]]) -> List[str]:
    """The acceptance checks ``repro sweep`` enforces: the 4-shard
    point scales by :data:`SCALE_FLOOR` at no worse a p99 than the
    single-volume baseline, and every shard image verifies."""
    failures: List[str] = []
    by_key = {
        (row["shards"], row["clients"]): row for row in points
    }
    base = by_key.get((1, 64))
    four = by_key.get((4, 64))
    if base is not None and four is not None:
        ratio = (
            four["throughput_per_second"] / base["throughput_per_second"]
            if base["throughput_per_second"]
            else 0.0
        )
        if ratio < SCALE_FLOOR:
            failures.append(
                f"4-shard/64-client throughput is only {ratio:.2f}x the "
                f"single-volume baseline (need >= {SCALE_FLOOR}x)"
            )
        if four["latency_p99_seconds"] > base["latency_p99_seconds"]:
            failures.append(
                f"4-shard p99 ({four['latency_p99_seconds']}s) exceeds "
                f"the saturated single-volume p99 "
                f"({base['latency_p99_seconds']}s)"
            )
    for row in points:
        if not row["consistent"]:
            failures.append(
                f"shards={row['shards']} clients={row['clients']}: "
                f"a shard image failed verification"
            )
    return failures
