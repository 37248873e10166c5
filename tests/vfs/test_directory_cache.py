"""The cached directory (edited in place) against what the disk holds."""

import random

import pytest

from repro.common.directory import entry_size
from repro.errors import NoSpaceError
from repro.ffs.filesystem import FastFileSystem
from repro.ffs.fsck import fsck
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from tests.conftest import small_ffs_config, small_lfs_config


def remount(fs):
    fs.unmount()
    if isinstance(fs, LogStructuredFS):
        return LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
    return FastFileSystem.mount(fs.disk, fs.cpu, small_ffs_config())


def blocks_of(fs, path):
    """Per block: the entries in packed order, and the free bytes."""
    directory = fs._dir(fs._get_inode(fs.stat(path).inum))
    return [(block.entries, block.free_bytes()) for block in directory.blocks]


def test_directory_survives_flush_and_remount(anyfs):
    rng = random.Random(20)
    anyfs.mkdir("/big")
    live = []
    for round_number in range(150):
        for _ in range(10):
            name = f"file-{len(live)}-{round_number}-{rng.randrange(10**6)}"
            anyfs.create(f"/big/{name}").close()
            live.append(name)
        for _ in range(3):
            anyfs.unlink(f"/big/{live.pop(rng.randrange(len(live)))}")

    edited = blocks_of(anyfs, "/big")
    assert len(edited) >= 3
    assert [name for entries, _ in edited for name, _ in entries] != sorted(
        live
    ), "the schedule should leave the names out of order"
    for entries, free in edited:
        used = sum(entry_size(name) for name, _ in entries)
        assert used + free == anyfs.block_size
    assert sorted(name for entries, _ in edited for name, _ in entries) == sorted(
        live
    )

    # Decoded afresh from the file cache's blocks, then from the disk.
    anyfs.flush_caches()
    assert not anyfs._dirs
    assert blocks_of(anyfs, "/big") == edited
    again = remount(anyfs)
    assert blocks_of(again, "/big") == edited
    assert again.listdir("/big") == sorted(live)

    # And the remounted directory keeps filling the same gaps.
    again.create("/big/late").close()
    first_fit = next(
        index
        for index, (_, free) in enumerate(edited)
        if free >= entry_size("late")
    )
    assert blocks_of(again, "/big")[first_fit][0][-1][0] == "late"


def fail_next_dir_write(fs, monkeypatch):
    """The next directory block write raises, as an out-of-space FFS or
    an eviction flush on a full LFS would; later ones go through."""
    real = fs._write_dir_block

    def failing(*args):
        monkeypatch.setattr(fs, "_write_dir_block", real)
        raise NoSpaceError("injected")

    monkeypatch.setattr(fs, "_write_dir_block", failing)


def test_failed_add_leaves_the_cached_block_unchanged(anyfs, monkeypatch):
    anyfs.create("/kept").close()
    before = blocks_of(anyfs, "/")
    fail_next_dir_write(anyfs, monkeypatch)
    with pytest.raises(NoSpaceError):
        anyfs.create("/new")
    assert blocks_of(anyfs, "/") == before
    assert not anyfs.exists("/new")
    anyfs.create("/new").close()  # used to raise "already in block"
    assert anyfs.listdir("/") == ["kept", "new"]
    anyfs.flush_caches()
    assert anyfs.listdir("/") == ["kept", "new"]


def test_failed_remove_leaves_the_cached_block_unchanged(anyfs, monkeypatch):
    anyfs.create("/kept").close()
    anyfs.create("/doomed").close()
    fail_next_dir_write(anyfs, monkeypatch)
    with pytest.raises(NoSpaceError):
        anyfs.unlink("/doomed")
    assert anyfs.exists("/doomed")
    assert dict(blocks_of(anyfs, "/")[0][0]).keys() == {"kept", "doomed"}
    anyfs.unlink("/doomed")  # used to raise "no entry named ... in block"
    anyfs.flush_caches()
    assert anyfs.listdir("/") == ["kept"]


def assert_image_clean(fs):
    fs.unmount()
    if isinstance(fs, LogStructuredFS):
        assert verify_lfs(fs.disk.device).errors == []
    else:
        report = fsck(fs.disk, small_ffs_config())
        assert report.clean and report.repairs() == 0


@pytest.mark.parametrize("call", ["create", "mkdir"])
def test_failed_create_frees_the_inode_it_allocated(anyfs, monkeypatch, call):
    def make(path):
        if call == "create":
            anyfs.create(path).close()
        else:
            anyfs.mkdir(path)

    anyfs.mkdir("/d")
    anyfs.create("/d/kept").close()
    allocated = anyfs.statvfs().used_files
    fail_next_dir_write(anyfs, monkeypatch)
    with pytest.raises(NoSpaceError):
        make("/d/x")
    assert not anyfs.exists("/d/x")
    assert anyfs.statvfs().used_files == allocated
    make("/d/x")
    assert anyfs.statvfs().used_files == allocated + 1
    assert anyfs.listdir("/d") == ["kept", "x"]
    # Used to report "inode N allocated but unreachable" / an orphan.
    assert_image_clean(anyfs)
