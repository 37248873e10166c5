"""Unit tests for the per-request disk trace: the ``disk.read`` and
``disk.write`` spans a :class:`SimDisk` opens under
``Telemetry(trace_io=True)``, and the Figure 1/2 renderings of them."""

import pytest

from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.harness.experiments import render_disk_image, render_table
from repro.obs import Telemetry
from repro.obs.tracer import Span
from repro.sim.clock import SimClock
from repro.units import MIB


def make_span(
    sector=0,
    nsectors=8,
    kind="disk.write",
    sync=False,
    tier="far",
    label="x",
    start=0.0,
) -> Span:
    return Span(
        span_id=1,
        parent_id=None,
        kind=kind,
        start=start,
        attrs={
            "sector": sector,
            "sync": sync,
            "label": label,
            "bytes": nsectors * 512,
            "tier": tier,
        },
    )


def traced_disk(trace_io=True):
    telemetry = Telemetry(trace_io=trace_io)
    return SimDisk(wren_iv(64 * MIB), SimClock(), telemetry=telemetry), telemetry


class TestRecorder:
    def test_record_and_filter(self):
        disk, telemetry = traced_disk()
        disk.write(0, b"x" * 4096, sync=True)
        disk.write(8, b"x" * 4096, sync=False)
        disk.read(0, 8)
        tracer = telemetry.tracer
        assert len(tracer.spans) == 3
        writes = tracer.by_kind("disk.write")
        assert len(writes) == 2
        assert len(tracer.by_kind("disk.read")) == 1
        assert [span.attrs["sync"] for span in writes] == [True, False]

    def test_disabled_recorder_drops(self):
        disk, telemetry = traced_disk(trace_io=False)
        disk.write(0, b"x" * 4096, sync=True)
        disk.read(0, 8)
        assert telemetry.tracer.spans == []

    def test_random_requests(self):
        disk, telemetry = traced_disk()
        disk.write(0, b"x" * 4096)  # the head starts at 0
        disk.write(8 + 100, b"x" * 4096)
        disk.write(100000, b"x" * 4096)
        tiers = [span.attrs["tier"] for span in telemetry.tracer.spans]
        assert tiers == ["sequential", "near", "far"]


class TestRendering:
    def test_table_contains_labels(self):
        table = render_table([make_span(label="inode write", sync=True)])
        assert "inode write" in table
        assert "sync" in table

    def test_table_only_writes(self):
        spans = [make_span(kind="disk.read", label="a read")]
        assert "a read" not in render_table(spans)

    def test_disk_image_marks_sync_and_async(self):
        spans = [make_span(sector=0, sync=True), make_span(sector=500)]
        image = render_disk_image(spans, num_sectors=1000, sector_size=512, width=10)
        assert image[0] == "S"
        assert image[5] == "w"
        assert image.count(".") == 8

    def test_disk_image_sync_wins_over_async(self):
        spans = [make_span(sector=0), make_span(sector=0, sync=True)]
        image = render_disk_image(spans, num_sectors=1000, sector_size=512, width=10)
        assert image[0] == "S"

    def test_disk_image_validates_args(self):
        with pytest.raises(ValueError):
            render_disk_image([], num_sectors=0, sector_size=512)

    def test_event_describe(self):
        row = render_table([make_span(label="hello", sync=True)]).splitlines()[-1]
        assert "write" in row and "sync" in row and "hello" in row
