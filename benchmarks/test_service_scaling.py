"""Service scaling: clients vs throughput, latency, and group commit.

The sweep that motivates the service layer: as concurrent clients
increase, group commit amortizes fsync cost (batch sizes grow well past
1) so aggregate throughput scales far better than linearly-degrading
per-request latency would suggest.  At the default scale this is the
sweep behind the points of ``BENCH_service.json`` (which
``python -m repro sweep`` writes); at paper scale it runs 100 requests
per client.  It writes no report.
"""

from benchmarks.conftest import PAPER_SCALE, emit, once
from repro.analysis.report import Table
from repro.service.bench import REQUESTS_PER_CLIENT, SEED, run_sweep

REQUESTS = 100 if PAPER_SCALE else REQUESTS_PER_CLIENT


def test_service_scaling(benchmark):
    points = once(
        benchmark,
        lambda: run_sweep(REQUESTS),
    )

    table = Table(
        ["clients", "req/s", "p50 ms", "p99 ms", "batch mean", "throttles"],
        title=f"Service scaling ({REQUESTS} requests/client, seed {SEED})",
    )
    for point in points:
        table.row(
            point["clients"],
            point["throughput_per_second"],
            point["latency_p50_seconds"] * 1000,
            point["latency_p99_seconds"] * 1000,
            point["commit_batch_mean"],
            point["throttle_events"],
        )
    emit(table.render())

    last = points[-1]
    benchmark.extra_info.update(
        max_clients=last["clients"],
        max_clients_req_per_s=last["throughput_per_second"],
        max_clients_batch_mean=last["commit_batch_mean"],
    )

    # Shape assertions: nothing dropped anywhere; group commit actually
    # groups once there is concurrency; batching grows with clients.
    assert all(point["dropped"] == 0 for point in points)
    by_clients = {point["clients"]: point for point in points}
    assert by_clients[16]["commit_batch_mean"] > 1.5
    assert (
        by_clients[16]["commit_batch_mean"]
        > by_clients[1]["commit_batch_mean"]
    )
    # Aggregate throughput rises with offered load.
    assert (
        by_clients[16]["throughput_per_second"]
        > by_clients[1]["throughput_per_second"]
    )
