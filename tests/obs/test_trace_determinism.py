"""Trace determinism: the tracing pipeline must be a pure observer.

Two guarantees, both load-bearing for the attribution reports being
diffable artifacts:

* a seeded multi-client run exports a **byte-identical** trace tree
  and attribution report every time — spans carry simulated
  timestamps only, so nothing about the export depends on the host; and
* tracing on vs. off produces the **identical filesystem image** and
  service stats — instrumentation observes the simulation without
  perturbing it.
"""

from __future__ import annotations

import io
import json

from repro.obs import Telemetry
from repro.obs.attribution import build_trace_report
from repro.obs.export import export_jsonl
from repro.service.config import ServiceConfig
from repro.service.scheduler import simulate_service
from repro.service.stats import percentile
from repro.units import MIB

TOTAL_BYTES = 32 * MIB


def serve_config() -> ServiceConfig:
    return ServiceConfig(
        num_clients=16,
        seed=0,
        requests_per_client=6,
        fill_fraction=0.5,
    )


def run_serve_sim(telemetry):
    stats, fs = simulate_service(
        serve_config(), total_bytes=TOTAL_BYTES, telemetry=telemetry
    )
    fs.unmount()
    image = fs.disk.device.snapshot()
    return stats, fs, image


def exported_trace_bytes(telemetry) -> bytes:
    out = io.StringIO()
    export_jsonl(telemetry, out)
    return out.getvalue().encode("utf-8")


def attribution_bytes(telemetry, fs) -> bytes:
    report = build_trace_report(telemetry, fs=fs)
    return json.dumps(report, indent=2, sort_keys=True).encode("utf-8")


class TestSeededTraceIsByteIdentical:
    def test_trace_tree_and_attribution_report(self):
        blobs = []
        for _ in range(2):
            telemetry = Telemetry(trace_io=True)
            stats, fs, image = run_serve_sim(telemetry)
            assert stats.completed > 0 and stats.dropped == 0
            blobs.append(
                (
                    exported_trace_bytes(telemetry),
                    attribution_bytes(telemetry, fs),
                    image,
                )
            )
        first, second = blobs
        assert first[0] == second[0], "exported trace trees differ"
        assert first[1] == second[1], "attribution reports differ"
        assert first[2] == second[2], "filesystem images differ"

    def test_report_attribution_sums_exactly(self):
        telemetry = Telemetry()
        _, fs, _ = run_serve_sim(telemetry)
        report = build_trace_report(telemetry, fs=fs)
        assert report["requests"] == (
            serve_config().num_clients * serve_config().requests_per_client
        )
        assert report["max_sum_error"] == 0.0


class TestReportPercentilesAreTheService:
    def test_overall_p50_p99_equal_service_stats(self):
        # One percentile definition: the trace report and the service
        # report read the same p50/p99 off the same run.
        telemetry = Telemetry()
        stats, fs, _ = run_serve_sim(telemetry)
        report = build_trace_report(telemetry, fs=fs)
        total = report["attribution"]["overall"]["total"]
        assert total["p50"] == round(percentile(stats.all_latencies(), 0.5), 9)
        assert total["p99"] == round(stats.p99(), 9)


class TestTracingIsAPureObserver:
    def test_tracing_on_off_identical_images_and_stats(self):
        stats_off, _, image_off = run_serve_sim(None)
        stats_on, _, image_on = run_serve_sim(Telemetry(trace_io=True))
        assert image_on == image_off
        assert stats_on.to_dict() == stats_off.to_dict()
