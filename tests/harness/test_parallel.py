"""Tests for the deterministic parallel task runner and metric merge."""

import pytest

from repro.harness.parallel import (
    export_telemetry_totals,
    merge_metric_samples,
    run_tasks,
)
from repro.obs import Telemetry


def _square(value, offset):
    return value * value + offset


def _identify(index):
    import os

    return index, os.getpid()


class TestRunTasks:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_tasks(_square, [(1, 0)], jobs=0)

    def test_results_in_task_order_sequential(self):
        tasks = [(i, 100) for i in range(10)]
        assert run_tasks(_square, tasks, jobs=1) == [
            i * i + 100 for i in range(10)
        ]

    def test_results_in_task_order_parallel(self):
        tasks = [(i, 7) for i in range(20)]
        expected = run_tasks(_square, tasks, jobs=1)
        assert run_tasks(_square, tasks, jobs=2) == expected
        assert run_tasks(_square, tasks, jobs=4) == expected

    def test_parallel_actually_uses_workers(self):
        results = run_tasks(_identify, [(i,) for i in range(8)], jobs=2)
        assert [index for index, _pid in results] == list(range(8))
        import os

        assert all(pid != os.getpid() for _index, pid in results)

    def test_single_task_runs_in_process(self):
        results = run_tasks(_identify, [(0,)], jobs=4)
        import os

        assert results == [(0, os.getpid())]

    def test_empty_task_list(self):
        assert run_tasks(_square, [], jobs=4) == []


def _record(telemetry, scale):
    telemetry.counter("trials", kind="clean").inc(2 * scale)
    telemetry.counter("trials", kind="detected").inc(scale)
    telemetry.gauge("load").add(0.5 * scale)
    histogram = telemetry.histogram("latency", buckets=[1.0, 10.0])
    for value in (0.5, 5.0, 50.0):
        for _ in range(scale):
            histogram.observe(value)


class TestMergeMetricSamples:
    def test_merge_equals_single_process_recording(self):
        # Two "workers" each record scale=1; merging both into a fresh
        # telemetry must equal one process recording scale=2.
        expected = Telemetry()
        _record(expected, 2)

        merged = Telemetry()
        for _worker in range(2):
            worker = Telemetry()
            _record(worker, 1)
            totals = export_telemetry_totals(worker)
            assert merge_metric_samples(merged, totals) == 4
        assert merged.registry.to_dict() == expected.registry.to_dict()

    def test_merge_is_incremental(self):
        merged = Telemetry()
        worker = Telemetry()
        worker.counter("n").inc(3)
        totals = export_telemetry_totals(worker)
        merge_metric_samples(merged, totals)
        merge_metric_samples(merged, totals)
        [record] = merged.registry.to_dict()["metrics"]
        assert record["value"] == 6

    def test_unknown_kinds_skipped(self):
        merged = Telemetry()
        totals = export_telemetry_totals(Telemetry())
        totals["metrics"] = [{"name": "x", "kind": "span", "labels": {}}]
        assert merge_metric_samples(merged, totals) == 0

    def test_sticky_gauges_merge_by_max_not_sum(self):
        # fs.degraded is a state flag, not a quantity: four degraded
        # workers merge to 1, not 4 — and a healthy worker (0) must not
        # clear a degraded one's flag.
        merged = Telemetry()
        for value in (1, 0, 1, 1):
            worker = Telemetry()
            worker.gauge("fs.degraded").set(value)
            worker.gauge("cache.bytes").set(10)
            merge_metric_samples(merged, export_telemetry_totals(worker))
        assert merged.gauge("fs.degraded").value == 1
        assert merged.gauge("cache.bytes").value == 40  # sum, as before


def _record_with_spans(telemetry, scale):
    _record(telemetry, scale)
    for _ in range(scale):
        with telemetry.span("fs.write", path="/f"):
            pass
        span = telemetry.tracer.begin("service.request", client=0)
        telemetry.tracer.finish(span)


class TestExportTelemetryTotals:
    def test_dict_merge_equals_single_process_recording(self):
        # Two "workers" each record scale=1 (metrics *and* spans);
        # merging their exported totals must equal one process
        # recording scale=2 — the --jobs N == --jobs 1 contract.
        expected = Telemetry()
        _record_with_spans(expected, 2)

        merged = Telemetry()
        for _worker in range(2):
            worker = Telemetry()
            _record_with_spans(worker, 1)
            merge_metric_samples(merged, export_telemetry_totals(worker))
        assert merged.registry.to_dict() == expected.registry.to_dict()
        assert dict(merged.tracer.kind_counts) == dict(
            expected.tracer.kind_counts
        )
        assert dict(merged.tracer.kind_seconds) == dict(
            expected.tracer.kind_seconds
        )
        assert merged.tracer.dropped_spans == expected.tracer.dropped_spans
        assert (
            merged.registry.dropped_label_sets
            == expected.registry.dropped_label_sets
        )

    def test_span_event_records_stay_in_the_worker(self):
        worker = Telemetry()
        _record_with_spans(worker, 1)
        merged = Telemetry()
        merge_metric_samples(merged, export_telemetry_totals(worker))
        assert merged.tracer.spans == []
        assert merged.tracer.kind_counts["service.request"] == 1

    def test_drop_counters_merge(self):
        worker = Telemetry()
        worker.tracer.dropped_spans = 3
        worker.registry.dropped_label_sets = 2
        merged = Telemetry()
        merge_metric_samples(merged, export_telemetry_totals(worker))
        merge_metric_samples(merged, export_telemetry_totals(worker))
        assert merged.tracer.dropped_spans == 6
        assert merged.registry.dropped_label_sets == 4
