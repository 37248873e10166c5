"""Property tests for the zero-copy device read path.

``SectorDevice.read`` returns read-only memoryviews aliasing the live
device image.  Two things must hold for that to be safe:

* a view can never be used to mutate the device (it is read-only), and
* nothing observable — crash rollback, recovery, remounted file
  contents, the final device image — differs from the old copy-semantics
  reads, because every consumer that needs a stable snapshot makes its
  own explicit copy.

The first test drives a raw device through arbitrary schedules of
writes, reads, durability horizons and crashes, mirrored against a
second device whose reads are copied into ``bytes`` at once.  The
second builds a real LFS (its clustered/prefetch read path always on),
crashes it mid-life, remounts, and compares the surviving image and
file contents against an identical run with copy-semantics reads
patched back in.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.device import SectorDevice
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from tests.conftest import small_lfs_config
from repro.units import KIB, MIB

NUM_SECTORS = 24
SECTOR_SIZE = 32


@st.composite
def device_schedules(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(["write", "read", "durable", "crash"]))
        if kind == "write":
            sector = draw(st.integers(0, NUM_SECTORS - 1))
            count = draw(st.integers(1, min(4, NUM_SECTORS - sector)))
            fill = draw(st.integers(0, 255))
            completion = draw(
                st.floats(0, 100, allow_nan=False, allow_infinity=False)
            )
            durable = draw(st.booleans())
            ops.append(("write", sector, count, fill, completion, durable))
        elif kind == "read":
            sector = draw(st.integers(0, NUM_SECTORS - 1))
            count = draw(st.integers(1, NUM_SECTORS - sector))
            ops.append(("read", sector, count))
        else:
            now = draw(
                st.floats(0, 100, allow_nan=False, allow_infinity=False)
            )
            ops.append((kind, now))
    return ops


class TestDeviceViewSemantics:
    @given(device_schedules())
    @settings(max_examples=120, deadline=None)
    def test_views_are_readonly_and_never_diverge_from_copies(self, ops):
        zero = SectorDevice(NUM_SECTORS, SECTOR_SIZE)
        snap = SectorDevice(NUM_SECTORS, SECTOR_SIZE)
        held = []
        for op in ops:
            if op[0] == "write":
                _, sector, count, fill, completion, durable = op
                data = bytes([fill]) * (count * SECTOR_SIZE)
                zero.write(sector, data, completion, durable=durable)
                snap.write(sector, data, completion, durable=durable)
            elif op[0] == "read":
                _, sector, count = op
                view = zero.read(sector, count)
                copied = bytes(snap.read(sector, count))
                assert isinstance(view, memoryview) and view.readonly
                with pytest.raises(TypeError):
                    view[0] = 0
                assert bytes(view) == copied
                held.append((sector, count, view))
            elif op[0] == "durable":
                zero.mark_durable(op[1])
                snap.mark_durable(op[1])
            else:
                zero.crash(op[1])
                snap.crash(op[1])
                zero.revive()
                snap.revive()
        image = zero.snapshot()
        assert image == snap.snapshot()
        # Held views alias live storage: they always show the *current*
        # image, including the effects of crash rollback — the reason
        # snapshot consumers must copy what they read.
        for sector, count, view in held:
            start = sector * SECTOR_SIZE
            assert bytes(view) == image[start : start + count * SECTOR_SIZE]


@contextmanager
def copy_semantics_reads():
    """Patch ``SectorDevice.read`` back to returning bytes copies."""
    original = SectorDevice.read

    def read_with_copies(self, sector, count):
        return bytes(original(self, sector, count))

    SectorDevice.read = read_with_copies
    try:
        yield
    finally:
        SectorDevice.read = original


def _crash_remount_run(files, copy_semantics):
    def run():
        config = small_lfs_config(segment_size=64 * KIB, cache_bytes=1 * MIB)
        fs = make_lfs(total_bytes=8 * MIB, config=config)
        for index, payload in enumerate(files):
            fs.write_file(f"/f{index}", payload)
            if index == len(files) // 2:
                fs.checkpoint()
        fs.sync()
        fs.crash()
        fs.disk.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, config)
        contents = {}
        for index in range(len(files)):
            path = f"/f{index}"
            if again.exists(path):
                contents[path] = again.read_file(path)
        return fs.disk.device.snapshot(), contents

    if copy_semantics:
        with copy_semantics_reads():
            return run()
    return run()


class TestCrashRemountMatchesCopySemantics:
    @given(
        st.lists(
            st.binary(min_size=0, max_size=12 * KIB),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_image_and_contents_identical(self, files):
        view_image, view_contents = _crash_remount_run(
            files, copy_semantics=False
        )
        copy_image, copy_contents = _crash_remount_run(
            files, copy_semantics=True
        )
        assert view_image == copy_image
        assert view_contents == copy_contents
