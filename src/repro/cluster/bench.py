#!/usr/bin/env python
"""Cluster scaling sweep: shards × clients vs throughput and latency.

Extends ``BENCH_service.json`` with a ``cluster`` section: the service
scaling sweep (``repro.service.bench``) pins the single-volume curve,
and this sweep shows what sharding the namespace buys at client counts
a single volume cannot absorb (it saturates near 16 clients).  The
single-shard 64-client point is the scale-out baseline: the same
offered load on one volume.

All numbers are simulated time; each point is a pure function of the
seed, so the extended report stays diffable across commits
(``repro bench-diff``).

Usage::

    python -m repro.cluster.bench                  # full sweep -> repo root
    python -m repro.cluster.bench --smoke          # tiny sweep -> /tmp
    python -m repro.cluster.bench --points 1x64,4x64 --jobs 4
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.sim import run_cluster
from repro.service.bench import DEFAULT_OUTPUT, update_report

DEFAULT_POINTS: Tuple[Tuple[int, int], ...] = (
    (1, 64),
    (4, 64),
    (8, 128),
    (16, 256),
)
DEFAULT_REQUESTS = 25
SCALE_FLOOR = 3.0
"""Gate: 4 shards at the baseline's offered load must deliver at least
this multiple of the single-volume throughput."""


def sweep_point(
    shards: int,
    clients: int,
    seed: int = 0,
    requests_per_client: int = DEFAULT_REQUESTS,
    jobs: int = 1,
) -> Dict[str, object]:
    """One sweep point: a full cluster run, flattened for the report."""
    config = ClusterConfig(
        shards=shards,
        clients=clients,
        seed=seed,
        requests_per_client=requests_per_client,
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


def run_sweep(
    points: Sequence[Tuple[int, int]] = DEFAULT_POINTS,
    seed: int = 0,
    requests_per_client: int = DEFAULT_REQUESTS,
    jobs: int = 1,
    log=None,
) -> List[Dict[str, object]]:
    """Sweep the (shards, clients) grid.

    Parallelism lives *inside* each point (shard groups fan out via
    ``run_tasks``), so the sweep itself runs points sequentially and
    the report is byte-identical for any ``jobs`` value.
    """
    rows = [
        sweep_point(
            shards,
            clients,
            seed=seed,
            requests_per_client=requests_per_client,
            jobs=jobs,
        )
        for shards, clients in points
    ]
    if log is not None:
        for row in rows:
            log(
                f"shards={row['shards']:>3} clients={row['clients']:>4}: "
                f"{row['throughput_per_second']:>8.1f} req/s, "
                f"p99 {row['latency_p99_seconds'] * 1000:>9.3f} ms"
            )
    return rows


def scale_gate(points: Sequence[Dict[str, object]]) -> List[str]:
    """The acceptance checks ``make cluster-bench`` enforces."""
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="sharded cluster scaling sweep"
    )
    parser.add_argument(
        "--points",
        default=",".join(f"{s}x{c}" for s, c in DEFAULT_POINTS),
        help="comma-separated SHARDSxCLIENTS points",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests-per-client", type=int, default=DEFAULT_REQUESTS
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per point (shard groups fan out; the "
        "report is byte-identical for any value)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sweep (1x8, 2x8 x 10 requests) writing to /tmp",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="report path (default: BENCH_service.json at the repo root)",
    )
    args = parser.parse_args(argv)

    points = [
        (int(part.split("x")[0]), int(part.split("x")[1]))
        for part in args.points.split(",")
        if part
    ]
    requests = args.requests_per_client
    output = args.output
    if args.smoke:
        points = [(1, 8), (2, 8)]
        requests = 10
        if args.output == DEFAULT_OUTPUT:
            output = "/tmp/BENCH_cluster_smoke.json"

    rows = run_sweep(
        points,
        seed=args.seed,
        requests_per_client=requests,
        jobs=args.jobs,
        log=print,
    )
    update_report(
        output,
        {
            "cluster": {
                "seed": args.seed,
                "requests_per_client": requests,
                "points": rows,
            }
        },
    )
    print(f"report -> {output}")

    failures = scale_gate(rows) if not args.smoke else [
        failure
        for failure in scale_gate(rows)
        if "verification" in failure
    ]
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
