#!/usr/bin/env python
"""Service scaling sweep: clients vs throughput, latency and batching.

Runs the multi-client simulation at increasing client counts and
records, per point, the simulated throughput, latency percentiles,
group-commit batch sizes and backpressure totals.  All numbers are
simulated time, so the sweep is deterministic for a given seed and the
JSON report (``BENCH_service.json``) is diffable across commits.

Usage::

    python -m repro.service.bench                 # full sweep -> repo root
    python -m repro.service.bench --smoke         # tiny sweep -> /tmp
    python -m repro.service.bench --clients 1,4,16 --output out.json
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Optional, Sequence

from repro.service.config import ServiceConfig
from repro.service.scheduler import simulate_service
from repro.units import MIB

DEFAULT_CLIENTS = (1, 2, 4, 8, 16)
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    ),
    "BENCH_service.json",
)
"""The committed report both sweeps write: this one's points at the
top level, :mod:`repro.cluster.bench`'s under ``cluster``."""


def sweep_point(
    clients: int,
    seed: int = 0,
    requests_per_client: int = 50,
    fill_fraction: float = 0.0,
    total_bytes: int = 64 * MIB,
) -> Dict[str, object]:
    """One sweep point: run the service and flatten its stats."""
    config = ServiceConfig(
        num_clients=clients,
        seed=seed,
        requests_per_client=requests_per_client,
        fill_fraction=fill_fraction,
    )
    stats, fs = simulate_service(config, total_bytes=total_bytes)
    fs.unmount()
    point: Dict[str, object] = {"clients": clients}
    point.update(stats.to_dict())
    # The write-amplification ledger rides along per point, so the
    # sweep shows how batching discipline changes bytes, not just
    # latency (keys prefixed to keep the flat namespace collision-free).
    wamp = fs.wamp_report()
    point["wamp_user_bytes"] = wamp["user_bytes"]
    point["wamp_log_bytes"] = wamp["log_bytes"]
    point["wamp_cleaner_bytes"] = wamp["cleaner_bytes"]
    point["wamp_write_amplification"] = round(
        wamp["write_amplification"], 6
    )
    return point


def run_sweep(
    clients_list: Sequence[int] = DEFAULT_CLIENTS,
    seed: int = 0,
    requests_per_client: int = 50,
    fill_fraction: float = 0.0,
    log=None,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Sweep the client counts; ``jobs > 1`` runs the points in parallel.

    Each point is an independent seeded simulation, and results are
    consumed in sweep order, so the report is byte-identical for any
    ``jobs`` value.
    """
    from repro.harness.parallel import run_tasks

    points = run_tasks(
        sweep_point,
        [
            (clients, seed, requests_per_client, fill_fraction)
            for clients in clients_list
        ],
        jobs=jobs,
    )
    if log is not None:
        for point in points:
            log(
                f"clients={point['clients']:>3}: "
                f"{point['throughput_per_second']:>8.1f} req/s, "
                f"p99 {point['latency_p99_seconds'] * 1000:>9.3f} ms, "
                f"batch mean {point['commit_batch_mean']:.2f}"
            )
    return points


def update_report(output: str, section: Dict[str, object]) -> None:
    """Write one sweep's keys into the report at ``output``, keeping
    every key the other sweep left there."""
    report: Dict[str, object] = {}
    if os.path.exists(output):
        with open(output) as handle:
            report = json.load(handle)
    report["benchmark"] = "service_scaling"
    report.update(section)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="multi-client service scaling sweep"
    )
    parser.add_argument(
        "--clients",
        default=",".join(str(n) for n in DEFAULT_CLIENTS),
        help="comma-separated client counts to sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests-per-client", type=int, default=50)
    parser.add_argument(
        "--fill",
        type=float,
        default=0.0,
        help="pre-fill fraction of serviceable capacity",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sweep (1,4 clients x 10 requests) writing to /tmp",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep points (report is "
        "byte-identical for any value)",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="report path (default: BENCH_service.json at the repo root)",
    )
    args = parser.parse_args(argv)

    clients_list = [int(part) for part in args.clients.split(",") if part]
    requests = args.requests_per_client
    output = args.output
    if args.smoke:
        clients_list = [1, 4]
        requests = 10
        if args.output == DEFAULT_OUTPUT:
            output = "/tmp/BENCH_service_smoke.json"

    points = run_sweep(
        clients_list,
        seed=args.seed,
        requests_per_client=requests,
        fill_fraction=args.fill,
        log=print,
        jobs=args.jobs,
    )
    update_report(
        output,
        {
            "seed": args.seed,
            "requests_per_client": requests,
            "points": points,
        },
    )
    print(f"report -> {output}")

    # Smoke gate: every request completes at every point.
    dropped = sum(int(point["dropped"]) for point in points)
    if dropped:
        print(f"FAIL: {dropped} dropped request(s)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
