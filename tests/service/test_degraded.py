"""Graceful read-only degradation of the service rig."""

import pytest

from repro.errors import ReadOnlyFSError
from repro.lfs.config import QUARANTINE_BUDGET, LfsConfig
from repro.lfs.filesystem import make_lfs
from repro.obs import Telemetry
from repro.service.admission import Decision
from repro.service.config import ServiceConfig
from repro.service.scheduler import RequestScheduler
from repro.units import KIB, MIB


def _small_fs(telemetry=None):
    return make_lfs(
        total_bytes=8 * MIB,
        config=LfsConfig(segment_size=256 * KIB, cache_bytes=2 * MIB),
        telemetry=telemetry,
    )


class TestDegradedTransition:
    def test_strikes_within_budget_stay_writable(self):
        fs = _small_fs()
        fs.note_media_damage(QUARANTINE_BUDGET, reason="test")
        assert not fs.degraded
        with fs.create("/ok") as handle:
            handle.write(b"still writable")
        fs.unmount()

    def test_exceeding_the_budget_degrades_exactly_once(self):
        telemetry = Telemetry()
        fs = _small_fs(telemetry=telemetry)
        fs.note_media_damage(QUARANTINE_BUDGET + 1, reason="test")
        assert fs.degraded
        assert telemetry.gauge("fs.degraded").value == 1
        spans = [s for s in telemetry.tracer.spans if s.kind == "fs.degrade"]
        assert len(spans) == 1
        fs.note_media_damage(1, reason="again")
        spans = [s for s in telemetry.tracer.spans if s.kind == "fs.degrade"]
        assert len(spans) == 1  # transition fires once

    def test_degraded_writes_raise_typed_error_reads_survive(self):
        fs = _small_fs()
        with fs.create("/keep") as handle:
            handle.write(b"payload")
        fs.flush_log(checkpoint=True)
        fs.note_media_damage(99, reason="test")
        with pytest.raises(ReadOnlyFSError):
            fs.create("/new")
        with pytest.raises(ReadOnlyFSError):
            fs.unlink("/keep")
        assert fs.read_file("/keep") == b"payload"

    def test_degraded_fsync_refuses_rather_than_lies(self):
        fs = _small_fs()
        handle = fs.create("/f")
        handle.write(b"data")
        fs.note_media_damage(99, reason="test")
        # Acking an fsync would promise durability the volume cannot
        # give: the refusal must be the typed error, not a silent ack.
        with pytest.raises(ReadOnlyFSError):
            fs.fsync_many([handle])
        handle.close()


class TestDegradedService:
    def _run_degraded_rig(self):
        telemetry = Telemetry()
        fs = _small_fs(telemetry=telemetry)
        config = ServiceConfig(
            num_clients=4, seed=3, requests_per_client=30
        )
        scheduler = RequestScheduler(fs, config, telemetry=telemetry)
        # Give every stream a pre-degradation working set, as after a
        # remount: reads/opens then have surviving data to hit (a client
        # with no files degrades every request to a shed create).
        for client in scheduler.clients:
            path = f"{client.directory}/pre"
            with fs.create(path) as handle:
                handle.write(b"survives the degradation")
            client.files.append(path)
        fs.flush_log(checkpoint=True)
        fs.note_media_damage(99, reason="test")
        scheduler.run()  # must terminate without raising
        return fs, scheduler, telemetry

    def test_admission_sheds_write_class_with_reject_degraded(self):
        fs, scheduler, telemetry = self._run_degraded_rig()
        assert scheduler.stats.rejected_degraded > 0
        assert (
            telemetry.counter("service.rejected_degraded").value
            == scheduler.stats.rejected_degraded
        )

    def test_reads_still_complete_on_a_degraded_rig(self):
        fs, scheduler, _telemetry = self._run_degraded_rig()
        # The client directories predate the degradation (created at
        # scheduler construction), so opens/reads can still succeed.
        assert scheduler.stats.completed > 0

    def test_try_admit_decision_is_reject_degraded(self):
        fs = _small_fs()
        config = ServiceConfig(num_clients=1, requests_per_client=1)
        scheduler = RequestScheduler(fs, config)
        fs.note_media_damage(99, reason="test")
        assert (
            scheduler.admission.try_admit("write")
            is Decision.REJECT_DEGRADED
        )
        assert scheduler.admission.try_admit("read") is Decision.ADMIT

    def test_mid_run_degradation_fails_in_flight_writes_politely(self):
        # Degrade from *inside* the run (a timer flips the budget while
        # requests are in flight): nothing may escape scheduler.run().
        telemetry = Telemetry()
        fs = _small_fs(telemetry=telemetry)
        config = ServiceConfig(
            num_clients=4, seed=5, requests_per_client=40
        )
        scheduler = RequestScheduler(fs, config, telemetry=telemetry)
        fs.clock.call_at(
            fs.clock.now() + 0.05,
            lambda: fs.note_media_damage(99, reason="mid-run"),
        )
        scheduler.run()
        assert fs.degraded
        assert scheduler.stats.rejected_degraded > 0
