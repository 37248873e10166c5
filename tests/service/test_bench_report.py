"""The service and cluster sweeps share one report file.

``BENCH_service.json`` holds the service sweep's points at the top
level and the cluster sweep's under ``cluster``.  Regenerating either
sweep must replace only its own section.
"""

from __future__ import annotations

import json

from repro.cluster import bench as cluster_bench
from repro.service import bench as service_bench


def _load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def test_each_sweep_keeps_the_other_sweeps_section(tmp_path):
    report = tmp_path / "BENCH_service.json"
    service_args = ["--clients", "1", "--requests-per-client", "2"]
    cluster_args = ["--points", "1x2", "--requests-per-client", "2"]

    assert cluster_bench.main(cluster_args + ["--output", str(report)]) == 0
    cluster_section = _load(report)["cluster"]
    assert [row["clients"] for row in cluster_section["points"]] == [2]

    assert service_bench.main(service_args + ["--output", str(report)]) == 0
    both = _load(report)
    assert sorted(both) == [
        "benchmark",
        "cluster",
        "points",
        "requests_per_client",
        "seed",
    ]
    assert both["cluster"] == cluster_section
    assert [point["clients"] for point in both["points"]] == [1]

    assert cluster_bench.main(cluster_args + ["--output", str(report)]) == 0
    assert _load(report) == both

