"""Service scaling sweep: clients vs throughput, latency and batching.

Runs the multi-client simulation at increasing client counts and
records, per point, the simulated throughput, latency percentiles,
group-commit batch sizes and backpressure totals.  All numbers are
simulated time, so the sweep is a pure function of the seed; its
points are the top level of ``BENCH_service.json``, which
``python -m repro sweep`` writes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.service.config import ServiceConfig
from repro.service.scheduler import simulate_service

CLIENTS = (1, 2, 4, 8, 16)
REQUESTS_PER_CLIENT = 40
SEED = 0


def sweep_point(clients: int, requests_per_client: int) -> Dict[str, object]:
    """One sweep point: run the service and flatten its stats."""
    config = ServiceConfig(
        num_clients=clients,
        seed=SEED,
        requests_per_client=requests_per_client,
    )
    stats, fs = simulate_service(config)
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
    requests_per_client: int, jobs: int = 1
) -> List[Dict[str, object]]:
    """Sweep :data:`CLIENTS`; ``jobs > 1`` runs the points in parallel.

    Each point is an independent seeded simulation, and results are
    consumed in sweep order, so the report is byte-identical for any
    ``jobs`` value.
    """
    from repro.harness.parallel import run_tasks

    return run_tasks(
        sweep_point,
        [(clients, requests_per_client) for clients in CLIENTS],
        jobs=jobs,
    )
