"""``verify_lfs`` against the walk it replaced (``verify_oracle.py``).

The verifier now streams the checkpointed inode map (allocated entries
only), reads each inode block once and labels a data block only when a
finding names it.  None of that may show: on healthy, crashed and
damaged images every ``VerifyReport`` field and the error list, in
order, must equal the old walker's.
"""

import dataclasses
import random

import pytest

import repro.faults.campaign as campaign
from repro.common.inode import INODE_SIZE, Inode
from repro.disk.geometry import wren_iv
from repro.faults.device import FaultyDevice
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.rig import new_rig
from repro.units import MIB
from tests.conftest import small_lfs_config
from tests.lfs.verify_oracle import verify_lfs_oracle


def same_report(device):
    """Both walkers' reports, asserted equal; returns the new one."""
    new, old = verify_lfs(device), verify_lfs_oracle(device)
    assert dataclasses.asdict(new) == dataclasses.asdict(old)
    return new


def populated(fs):
    fs.mkdir("/d")
    fs.mkdir("/d/sub")
    for index in range(40):
        fs.write_file(f"/d/f{index}", bytes([index]) * (2500 * (index % 9 + 1)))
    fs.write_file("/big", b"B" * (600 * 4096))  # single- and double-indirect
    fs.rename("/d/f3", "/d/sub/moved")
    fs.unlink("/d/f7")
    return fs


def unmounted(fs):
    """Unmount; returns path -> inum for the files the tests damage."""
    paths = ["/big", "/d/sub"] + [f"/d/{name}" for name in fs.listdir("/d")]
    inums = {path: fs.stat(path).inum for path in paths}
    fs.unmount()
    return inums


def rewrite_inode(fs, inum, edit):
    """Apply ``edit`` to inode ``inum`` where it lies on the disk."""
    entry = fs.imap.get(inum)
    spb = fs.config.sectors_per_block
    raw = bytearray(fs.disk.device.read(entry.inode_addr * spb, spb))
    where = slice(entry.slot * INODE_SIZE, (entry.slot + 1) * INODE_SIZE)
    inode = Inode.unpack(raw[where])
    edit(inode)
    raw[where] = inode.pack()
    fs.disk.device.write(entry.inode_addr * spb, bytes(raw))


@pytest.fixture
def image(lfs):
    lfs.inums = unmounted(populated(lfs))
    return lfs


def test_clean_volume(image):
    report = same_report(image.disk.device)
    assert report.consistent and report.inodes_checked == 43
    assert report.directories_checked == 3


def test_crashed_mid_flush(disk, cpu):
    fs = populated(LogStructuredFS.mkfs(disk, cpu, small_lfs_config()))
    fs.checkpoint()
    for index in range(30):
        fs.write_file(f"/d/late{index}", b"l" * 9000)
    fs.unlink("/d/f5")
    # Start the flush but let the crash catch its writes in flight, the
    # multi-sector ones torn.
    fs.flush_log()
    disk.device.crash(
        fs.clock.now() - 0.01, rng=random.Random(3), tear_probability=1.0
    )
    disk.device.revive()
    assert same_report(disk.device).inodes_checked > 0  # the checkpoint's view
    disk.crash()
    disk.revive()
    recovered = LogStructuredFS.mount(disk, cpu, small_lfs_config())
    recovered.unmount()
    same_report(disk.device)


def test_misdirected_pointer(image):
    def edit(inode):
        inode.direct[0] = image.layout.total_blocks + 17  # outside the log
        inode.direct[1] = 1  # inside the device, before the first segment

    rewrite_inode(image, image.inums["/d/f26"], edit)
    report = same_report(image.disk.device)
    assert sum("outside the log" in error for error in report.errors) == 2
    assert any(error.startswith("data lbn 0 of inode") for error in report.errors)


def test_shared_blocks(image):
    big = image._get_inode(image.inums["/big"])
    victim = image._get_inode(image.inums["/d/f2"])

    def edit(inode):
        inode.direct[0] = victim.direct[0]  # another file's data block
        inode.direct[1] = big.indirect  # a pointer block
        inode.direct[2] = image.imap.block_addrs[0]  # an inode-map block
        inode.direct[3] = image.imap.get(victim.inum).inode_addr

    rewrite_inode(image, image.inums["/d/f35"], edit)
    report = same_report(image.disk.device)
    claimed = [e for e in report.errors if "claimed by both" in e]
    assert len(claimed) == 4
    assert any("data lbn 0 of inode" in e and "data lbn" in e.split(" and ")[1]
               for e in claimed)


def test_bad_nlink_orphans_and_dangling_entries(image):
    inums = image.inums
    rewrite_inode(image, inums["/d/f1"], lambda inode: setattr(inode, "nlink", 7))
    rewrite_inode(image, inums["/d/sub"], lambda inode: setattr(inode, "size", 0))
    report = same_report(image.disk.device)
    assert any("nlink 7" in error for error in report.errors)
    assert any("allocated but unreachable" in error for error in report.errors)


def test_wrong_inode_in_the_slot(image):
    other = image.inums["/d/f9"]
    rewrite_inode(
        image, image.inums["/d/f8"], lambda inode: setattr(inode, "inum", other)
    )
    report = same_report(image.disk.device)
    assert any("found inode" in error for error in report.errors)


def test_unreadable_sectors():
    geometry = wren_iv(24 * MIB)
    device = FaultyDevice(geometry.num_sectors, geometry.sector_size)
    rig = new_rig(
        "lfs", lfs_config=small_lfs_config(), geometry=geometry, device=device
    )
    fs = populated(rig.fs)
    inums = unmounted(fs)
    spb = fs.config.sectors_per_block
    entries = fs.imap._all_entries()
    allocated = [inum for inum, e in enumerate(entries) if e.allocated]
    shared = next(  # an inode block the root is not in
        fs.imap.get(inum).inode_addr for inum in allocated
        if fs.imap.get(inum).inode_addr != fs.imap.get(1).inode_addr
    )
    holders = [
        inum for inum in allocated if fs.imap.get(inum).inode_addr == shared
    ]
    assert len(holders) > 1  # one bad block, reported once per inode in it
    big = fs._get_inode(inums["/big"])
    root = fs._get_inode(1)
    device.injector.bad_sectors.update(
        {
            shared * spb + 1,
            big.indirect * spb,
            big.dindirect * spb + 3,
            root.direct[0] * spb,
            fs.imap.block_addrs[0] * spb + 2,
        }
    )
    # A map block lost: the inodes it held go unchecked, as before.
    assert same_report(device).errors[1:] == ["root inode missing or unreadable"]
    device.injector.bad_sectors.discard(fs.imap.block_addrs[0] * spb + 2)
    report = same_report(device)
    assert report.media_errors == len(holders) + 3
    assert sum(e.startswith(f"inode {holders[0]}:") for e in report.errors) == 1


def test_campaign_images(monkeypatch):
    """The crash+corruption campaign's own survivors: torn writes, bit
    flips, grown bad sectors and transient read errors, verified twice."""
    verified = []

    def both(device):
        verified.append(same_report(device))
        return verified[-1]

    monkeypatch.setattr(campaign, "verify_lfs", both)
    for trial in range(12):
        result = campaign.run_trial(trial, seed=23, device_bytes=16 * MIB)
        assert result.outcome != "unhandled", result.detail
    assert len(verified) >= 8
    assert any(report.errors for report in verified)
    assert any(report.media_errors for report in verified)
