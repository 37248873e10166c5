"""Unit tests for the striped disk array (§2.1's RAID point)."""

import pytest

from repro.disk.array import StripedDisk
from repro.disk.geometry import wren_iv
from repro.errors import InvalidArgumentError, OutOfRangeError
from repro.sim.clock import SimClock
from repro.units import KIB, MIB


def make_array(num_disks=4, stripe=64 * KIB, clock=None):
    clock = clock or SimClock()
    return StripedDisk(wren_iv(32 * MIB), clock, num_disks, stripe)


class TestConstruction:
    def test_capacity_scales(self):
        array = make_array(num_disks=4)
        assert array.total_bytes == 4 * 32 * MIB

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_array(num_disks=0)
        with pytest.raises(InvalidArgumentError):
            make_array(stripe=1000)


class TestDataIntegrity:
    def test_write_read_roundtrip(self):
        array = make_array()
        payload = bytes(range(256)) * 1024  # 256 KB spanning stripes
        array.write(100, payload, sync=True)
        assert array.read(100, len(payload) // 512) == payload

    def test_zero_write_rejected(self):
        with pytest.raises(OutOfRangeError):
            make_array().write(0, b"")

    def test_crash_semantics(self):
        array = make_array()
        array.write(0, b"a" * 4096, sync=False)  # in flight
        array.crash()
        array.revive()
        assert array.read(0, 8) == b"\x00" * 4096

    def test_sync_write_durable_across_crash(self):
        array = make_array()
        array.write(0, b"b" * 4096, sync=True)
        array.crash()
        array.revive()
        assert array.read(0, 8) == b"b" * 4096


class TestParallelism:
    def test_large_write_faster_than_single_disk(self):
        from repro.disk.sim_disk import SimDisk

        clock_one = SimClock()
        single = SimDisk(wren_iv(128 * MIB), clock_one)
        single.write(0, b"x" * MIB, sync=True)

        clock_many = SimClock()
        array = make_array(num_disks=4, clock=clock_many)
        array.write(0, b"x" * MIB, sync=True)

        # Four spindles share the transfer: near-4x for segment-sized
        # writes (minus per-member positioning).
        assert clock_many.now() < clock_one.now() / 2.5

    def test_small_write_not_faster(self):
        from repro.disk.sim_disk import SimDisk

        clock_one = SimClock()
        single = SimDisk(wren_iv(128 * MIB), clock_one)
        single.write(200000, b"x" * 8192, sync=True)

        clock_many = SimClock()
        array = make_array(num_disks=4, clock=clock_many)
        array.write(200000, b"x" * 8192, sync=True)

        # §2.1: "the access time for small disk accesses is not
        # substantially improved" — one seek either way.
        assert clock_many.now() > clock_one.now() * 0.8

    def test_members_have_independent_heads(self):
        array = make_array(num_disks=2, stripe=4 * KIB)
        # Back-to-back stripe-sized writes alternate members and stay
        # sequential on each.
        array.write(0, b"a" * 4096, sync=True)
        array.write(8, b"b" * 4096, sync=True)
        array.write(16, b"c" * 4096, sync=True)
        tiers = array.stats.tier_counts
        assert tiers.get("far", 0) <= 1  # only initial positioning

    def test_drain_waits_for_slowest_member(self):
        clock = SimClock()
        array = make_array(num_disks=2, clock=clock)
        array.write(0, b"x" * MIB, sync=False)
        target = array.busy_until
        array.drain()
        assert clock.now() == pytest.approx(target)


class TestFileSystemOnArray:
    def test_lfs_runs_on_array(self):
        from repro.lfs.filesystem import LogStructuredFS
        from repro.sim.cpu import CpuModel
        from tests.conftest import small_lfs_config

        clock = SimClock()
        array = make_array(num_disks=4, clock=clock)
        fs = LogStructuredFS.mkfs(array, CpuModel(clock), small_lfs_config())
        fs.mkdir("/d")
        fs.write_file("/d/f", b"striped!" * 1000)
        fs.unmount()
        again = LogStructuredFS.mount(array, CpuModel(clock), small_lfs_config())
        assert again.read_file("/d/f") == b"striped!" * 1000

    def test_ffs_runs_on_array(self):
        from repro.ffs.filesystem import FastFileSystem
        from repro.sim.cpu import CpuModel
        from tests.conftest import small_ffs_config

        clock = SimClock()
        array = make_array(num_disks=2, clock=clock)
        fs = FastFileSystem.mkfs(array, CpuModel(clock), small_ffs_config())
        fs.write_file("/f", b"on raid" * 500)
        fs.sync()
        assert fs.read_file("/f") == b"on raid" * 500


class TestOneTimingModel:
    """An array is a SimDisk whose timeline is N member timelines."""

    def test_one_member_array_is_a_sim_disk(self):
        import random

        from repro.disk.sim_disk import SimDisk
        from repro.disk.trace import TraceRecorder

        geometry = wren_iv(32 * MIB)
        rigs = []
        for build in (
            lambda clock, trace: SimDisk(geometry, clock, trace=trace),
            lambda clock, trace: StripedDisk(geometry, clock, 1, trace=trace),
        ):
            clock, trace = SimClock(), TraceRecorder()
            rigs.append((build(clock, trace), clock, trace, []))
        rng = random.Random(24)
        cursor = 0  # where the previous request stopped
        for _ in range(600):
            # Half the requests continue where the head stopped, the
            # rest land near or far; the caller computes in between.
            sector = rng.choice((None, rng.randrange(0, 60000)))
            count = rng.choice((1, 8, 8, 64, 300))
            is_write, sync = rng.random() < 0.6, rng.random() < 0.3
            think = rng.choice((0.0, 0.0, 0.001, 0.05))
            at = cursor if sector is None else sector
            at = min(at, geometry.num_sectors - count)
            cursor = at + count
            for disk, clock, _trace, completions in rigs:
                if is_write:
                    done = disk.write(at, b"w" * (count * 512), sync=sync)
                else:
                    disk.read(at, count)
                    done = clock.now()
                completions.append(done)
                clock.advance(think)
        (single, clock_one, trace_one, done_one), (
            array, clock_many, trace_many, done_many
        ) = rigs
        assert done_one == done_many
        assert single.stats == array.stats
        assert set(single.stats.tier_counts) == {"sequential", "near", "far"}
        assert trace_one.events == trace_many.events
        assert clock_one.now() == clock_many.now()
        assert single.sync_stall_seconds == array.sync_stall_seconds
        assert single.busy_until == array.busy_until

    def test_array_reports_telemetry_and_cleaner_stalls(self):
        from repro.lfs.filesystem import LogStructuredFS
        from repro.obs import Telemetry
        from repro.sim.cpu import CpuModel
        from repro.workloads.cleaning import run_cleaning_rate_test
        from tests.conftest import small_lfs_config

        clock, telemetry = SimClock(), Telemetry()
        array = StripedDisk(wren_iv(8 * MIB), clock, 4, telemetry=telemetry)
        fs = LogStructuredFS.mkfs(
            array, CpuModel(clock), small_lfs_config(segment_size=64 * KIB)
        )
        assert fs.telemetry is telemetry  # adopted from the disk
        point = run_cleaning_rate_test(fs, 0.25, fill_segments=24)
        assert point.segments_cleaned > 0
        # The cleaner waits on the array's reads like on any disk's.
        assert fs.cleaner.stats.disk_stall_seconds > 0
        value = telemetry.registry.value
        assert value("disk.writes") == array.stats.writes > 0
        assert value("disk.reads") == array.stats.reads > 0
        assert value("disk.bytes_written") == array.stats.bytes_written
        assert value("disk.busy_seconds") == pytest.approx(
            array.stats.busy_seconds
        )

    def test_ablation_points_are_pinned(self):
        from repro.harness import ablation_disk_array

        assert [
            (p.kind, p.num_disks, p.create_files_per_second,
             p.seq_write_kb_per_second)
            for p in ablation_disk_array((1, 2, 4))
        ] == [
            ("lfs", 1, 146.3505104434907, 1146.0176995221625),
            ("lfs", 2, 190.55332443772866, 2027.0915139025765),
            ("lfs", 4, 224.07111534586173, 3137.54045052877),
            ("ffs", 1, 20.300533545992835, 714.1703084594651),
            ("ffs", 2, 22.716441656961155, 1323.9823466466155),
            ("ffs", 4, 24.275203911498085, 2281.277990283659),
        ]
