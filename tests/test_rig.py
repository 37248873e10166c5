"""The rig builder's injected inputs (``repro.rig.new_rig``).

The plain ``new_rig(kind, total_bytes=...)`` path is covered wherever
a test builds a rig; these pin what each optional input changes.
"""

import pytest

from repro.disk.device import SectorDevice
from repro.disk.geometry import wren_iv
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultyDevice
from repro.rig import new_rig
from repro.service.config import SERVICE_LFS_CONFIG, ServiceConfig
from repro.sim.clock import SimClock
from repro.units import MIB

SIZE = 32 * MIB


def test_shared_clock_puts_two_rigs_on_one_timeline():
    clock = SimClock()
    first = new_rig("lfs", total_bytes=SIZE, clock=clock)
    second = new_rig("lfs", total_bytes=SIZE, clock=clock)
    for rig in (first, second):
        assert rig.clock is clock
        assert rig.cpu.clock is clock
        assert rig.disk.clock is clock
    before = second.clock.now()
    first.fs.write_file("/x", b"tick" * 1024)
    first.fs.sync()
    assert second.clock.now() > before


def test_supplied_device_backs_the_disk():
    geometry = wren_iv(SIZE)
    device = FaultyDevice(
        geometry.num_sectors, geometry.sector_size, injector=FaultInjector()
    )
    rig = new_rig("lfs", total_bytes=SIZE, device=device)
    assert rig.disk.device is device
    rig.fs.write_file("/x", b"on the supplied device")
    rig.fs.unmount()
    assert b"on the supplied device" in bytes(device.snapshot())


@pytest.mark.parametrize("kind", ["lfs", "ffs"])
def test_mount_reopens_a_saved_image(kind, tmp_path):
    path = str(tmp_path / "disk.img")
    rig = new_rig(kind, total_bytes=SIZE)
    rig.fs.write_file("/kept", b"survives the round trip")
    rig.fs.unmount()
    rig.disk.device.save(path)

    device = SectorDevice.load(path)
    again = new_rig(
        kind, total_bytes=device.total_bytes, device=device, mount=True
    )
    assert again.fs.read_file("/kept") == b"survives the round trip"


def test_kind_none_stops_at_the_bare_disk():
    rig = new_rig(None, total_bytes=SIZE)
    assert rig.fs is None
    assert rig.disk.device.total_bytes == SIZE


def test_service_config_validates_before_booting():
    with pytest.raises(ConfigError) as excinfo:
        new_rig(
            "lfs",
            total_bytes=3 * MIB,
            lfs_config=SERVICE_LFS_CONFIG,
            service=ServiceConfig(),
        )
    assert len(excinfo.value.violations) == 2


def test_bare_library_rigs_stay_unvalidated():
    # Tests and examples deliberately build volumes too small to serve
    # (7- and 15-segment logs); only a rig that is about to serve
    # traffic is cross-checked.
    rig = new_rig("lfs", total_bytes=3 * MIB, lfs_config=SERVICE_LFS_CONFIG)
    rig.fs.write_file("/x", b"ok")
    assert rig.fs.read_file("/x") == b"ok"
