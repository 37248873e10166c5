"""UNIX-semantics tests run against BOTH storage managers.

The paper keeps file system semantics identical between LFS and FFS
(§4.2); the parametrized ``anyfs`` fixture enforces that symmetry.
"""

import pytest

from repro.common.directory import MAX_NAME_LEN
from repro.common.inode import FileType
from repro.disk.geometry import wren_iv
from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    InvalidArgumentError,
    IsADirectoryError_,
    MediaError,
    NotADirectoryError_,
    StaleHandleError,
)
from repro.faults import FaultConfig, FaultInjector, FaultyDevice
from repro.ffs.fsck import fsck
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.rig import new_rig
from repro.units import MIB
from tests.conftest import small_ffs_config, small_lfs_config


def assert_image_clean(fs):
    """Unmount and run the file system's own offline checker."""
    fs.unmount()
    if isinstance(fs, LogStructuredFS):
        assert verify_lfs(fs.disk.device).errors == []
    else:
        report = fsck(fs.disk)
        assert report.clean and report.repairs() == 0


class TestExists:
    """Only a path that does not resolve reads as absent."""

    def test_missing_and_below_a_file(self, anyfs):
        anyfs.write_file("/f", b"x")
        assert anyfs.exists("/f")
        assert not anyfs.exists("/missing")
        assert not anyfs.exists("/f/below")

    def test_unmounted_raises(self, anyfs):
        anyfs.write_file("/f", b"x")
        anyfs.unmount()
        with pytest.raises(StaleHandleError):
            anyfs.exists("/f")

    @pytest.mark.parametrize("kind", ["lfs", "ffs"])
    def test_unreadable_directory_block_raises(self, kind):
        geometry = wren_iv(32 * MIB)
        injector = FaultInjector(FaultConfig())
        device = FaultyDevice(
            geometry.num_sectors, geometry.sector_size, injector=injector
        )
        fs = new_rig(
            kind,
            geometry=geometry,
            device=device,
            lfs_config=small_lfs_config(),
            ffs_config=small_ffs_config(),
        ).fs
        fs.mkdir("/d")
        fs.write_file("/d/x", b"x")
        fs.flush_caches()  # LFS moves the blocks it writes back
        directory = fs._get_inode(fs.stat("/d").inum)
        sector = fs.block_map.get(directory, 0) * fs.sectors_per_block
        fs.flush_caches()
        injector.mark_unreadable(sector)
        with pytest.raises(MediaError):
            fs.exists("/d/x")


class TestCreateOpenUnlink:
    def test_create_then_read_back(self, anyfs):
        with anyfs.create("/f") as handle:
            handle.write(b"hello")
        assert anyfs.read_file("/f") == b"hello"

    def test_create_existing_raises(self, anyfs):
        anyfs.create("/f").close()
        with pytest.raises(FileExistsError_):
            anyfs.create("/f")

    def test_open_missing_raises(self, anyfs):
        with pytest.raises(FileNotFoundError_):
            anyfs.open("/missing")

    def test_open_directory_raises(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            anyfs.open("/d")

    def test_unlink_missing_raises(self, anyfs):
        with pytest.raises(FileNotFoundError_):
            anyfs.unlink("/missing")

    def test_unlink_directory_raises(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            anyfs.unlink("/d")

    def test_unlink_removes(self, anyfs):
        anyfs.write_file("/f", b"x")
        anyfs.unlink("/f")
        assert not anyfs.exists("/f")

    def test_handle_after_delete_is_stale(self, anyfs):
        handle = anyfs.create("/f")
        handle.write(b"x")
        anyfs.unlink("/f")
        with pytest.raises(StaleHandleError):
            handle.pread(0, 1)

    def test_stale_handle_cannot_reach_the_file_that_reuses_its_inode(
        self, anyfs
    ):
        stale = anyfs.create("/a")
        anyfs.unlink("/a")
        with anyfs.create("/b") as handle:
            handle.write(b"BBBBBB")
        assert anyfs.stat("/b").inum == stale.inum  # the number was reused
        for call in (
            lambda: stale.pwrite(0, b"XX"),
            lambda: stale.pread(0, 2),
            lambda: stale.truncate(0),
            lambda: stale.size,
            stale.fsync,
        ):
            with pytest.raises(StaleHandleError):
                call()
        assert anyfs.read_file("/b") == b"BBBBBB"
        assert_image_clean(anyfs)

    def test_handle_opened_after_reuse_is_live(self, anyfs):
        anyfs.create("/a").close()
        anyfs.unlink("/a")
        anyfs.write_file("/b", b"bee")
        with anyfs.open("/b") as handle:
            handle.pwrite(0, b"B")
            assert handle.size == 3
            handle.fsync()
        assert anyfs.read_file("/b") == b"Bee"

    def test_empty_file(self, anyfs):
        anyfs.create("/empty").close()
        assert anyfs.read_file("/empty") == b""
        assert anyfs.stat("/empty").size == 0


class TestDirectories:
    def test_mkdir_listdir(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.write_file("/d/b", b"")
        anyfs.write_file("/d/a", b"")
        assert anyfs.listdir("/d") == ["a", "b"]
        assert anyfs.listdir("/") == ["d"]

    def test_nested_directories(self, anyfs):
        anyfs.mkdir("/a")
        anyfs.mkdir("/a/b")
        anyfs.mkdir("/a/b/c")
        anyfs.write_file("/a/b/c/deep", b"deep")
        assert anyfs.read_file("/a/b/c/deep") == b"deep"

    def test_mkdir_missing_parent_raises(self, anyfs):
        with pytest.raises(FileNotFoundError_):
            anyfs.mkdir("/no/such")

    def test_mkdir_existing_raises(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(FileExistsError_):
            anyfs.mkdir("/d")

    def test_rmdir_empty(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.rmdir("/d")
        assert not anyfs.exists("/d")

    def test_rmdir_nonempty_raises(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.write_file("/d/f", b"")
        with pytest.raises(DirectoryNotEmptyError):
            anyfs.rmdir("/d")

    def test_rmdir_file_raises(self, anyfs):
        anyfs.write_file("/f", b"")
        with pytest.raises(NotADirectoryError_):
            anyfs.rmdir("/f")

    def test_path_through_file_raises(self, anyfs):
        anyfs.write_file("/f", b"")
        with pytest.raises((NotADirectoryError_, FileNotFoundError_)):
            anyfs.stat("/f/child")

    @pytest.mark.parametrize("op", ["create", "mkdir", "unlink", "rmdir"])
    def test_the_root_has_no_parent(self, anyfs, op):
        with pytest.raises(InvalidArgumentError):
            getattr(anyfs, op)("/")
        with pytest.raises(InvalidArgumentError):
            anyfs.rename("/", "/x")
        assert anyfs.listdir("/") == []

    def test_nlink_counts(self, anyfs):
        assert anyfs.stat("/").nlink == 2
        anyfs.mkdir("/d")
        assert anyfs.stat("/").nlink == 3
        assert anyfs.stat("/d").nlink == 2
        anyfs.rmdir("/d")
        assert anyfs.stat("/").nlink == 2

    def test_many_entries_span_blocks(self, anyfs):
        anyfs.mkdir("/big")
        names = [f"file-with-a-long-name-{i:04d}" for i in range(600)]
        for name in names:
            anyfs.create(f"/big/{name}").close()
        assert anyfs.listdir("/big") == sorted(names)
        # Entry removal from middle blocks works too.
        for name in names[::2]:
            anyfs.unlink(f"/big/{name}")
        assert len(anyfs.listdir("/big")) == 300


class TestRename:
    def test_same_directory(self, anyfs):
        anyfs.write_file("/a", b"1")
        anyfs.rename("/a", "/b")
        assert not anyfs.exists("/a")
        assert anyfs.read_file("/b") == b"1"

    def test_across_directories(self, anyfs):
        anyfs.mkdir("/d1")
        anyfs.mkdir("/d2")
        anyfs.write_file("/d1/f", b"move me")
        anyfs.rename("/d1/f", "/d2/g")
        assert anyfs.read_file("/d2/g") == b"move me"
        assert anyfs.listdir("/d1") == []

    def test_overwrites_existing_file(self, anyfs):
        anyfs.write_file("/src", b"new")
        anyfs.write_file("/dst", b"old")
        anyfs.rename("/src", "/dst")
        assert anyfs.read_file("/dst") == b"new"
        assert not anyfs.exists("/src")

    def test_directory_rename(self, anyfs):
        anyfs.mkdir("/old")
        anyfs.write_file("/old/f", b"x")
        anyfs.rename("/old", "/new")
        assert anyfs.read_file("/new/f") == b"x"

    def test_dir_move_updates_nlink(self, anyfs):
        anyfs.mkdir("/a")
        anyfs.mkdir("/b")
        anyfs.mkdir("/a/sub")
        anyfs.rename("/a/sub", "/b/sub")
        assert anyfs.stat("/a").nlink == 2
        assert anyfs.stat("/b").nlink == 3

    def test_missing_source_raises(self, anyfs):
        with pytest.raises(FileNotFoundError_):
            anyfs.rename("/nope", "/dst")

    def test_target_directory_raises(self, anyfs):
        anyfs.write_file("/f", b"")
        anyfs.mkdir("/d")
        with pytest.raises(FileExistsError_):
            anyfs.rename("/f", "/d")

    def test_onto_itself_is_a_noop(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.write_file("/d/f", b"keep me")
        anyfs.rename("/d/f", "/d/f")
        anyfs.rename("/d", "/d")
        assert anyfs.listdir("/") == ["d"]
        assert anyfs.listdir("/d") == ["f"]
        assert anyfs.read_file("/d/f") == b"keep me"
        assert_image_clean(anyfs)

    @pytest.mark.parametrize("target", ["/x/y", "/x/y/z", "/x/./y", "/x//y"])
    def test_into_its_own_subtree_is_refused(self, anyfs, target):
        anyfs.mkdir("/x")
        anyfs.mkdir("/x/y")
        anyfs.write_file("/x/f", b"still reachable")
        if target != "/x/y/z":
            anyfs.rmdir("/x/y")
        with pytest.raises(InvalidArgumentError):
            anyfs.rename("/x", target)
        assert anyfs.listdir("/") == ["x"]
        assert anyfs.read_file("/x/f") == b"still reachable"
        assert_image_clean(anyfs)

    def test_sibling_with_a_common_prefix_is_not_a_subtree(self, anyfs):
        anyfs.mkdir("/x")
        anyfs.mkdir("/xy")
        anyfs.rename("/x", "/xy/x")
        assert anyfs.listdir("/") == ["xy"]
        assert anyfs.listdir("/xy") == ["x"]
        assert_image_clean(anyfs)


class TestNameRefusedBeforeAnyMutation:
    """A name the directory format cannot hold is refused up front:
    nothing allocated, nothing removed, the image still checks clean."""

    TOO_LONG = "/" + "x" * (MAX_NAME_LEN + 1)

    def test_rename_keeps_the_source(self, anyfs):
        anyfs.write_file("/a", b"still here")
        with pytest.raises(InvalidArgumentError):
            anyfs.rename("/a", self.TOO_LONG)
        assert anyfs.listdir("/") == ["a"]
        assert anyfs.read_file("/a") == b"still here"
        assert_image_clean(anyfs)

    @pytest.mark.parametrize("op", ["create", "mkdir"])
    def test_create_and_mkdir_leak_no_inode(self, anyfs, op):
        anyfs.write_file("/a", b"1")
        files_before = anyfs.statvfs().used_files
        with pytest.raises(InvalidArgumentError):
            getattr(anyfs, op)(self.TOO_LONG)
        assert anyfs.listdir("/") == ["a"]
        assert anyfs.statvfs().used_files == files_before
        assert anyfs.stat("/").nlink == 2
        assert_image_clean(anyfs)


class TestReadWriteSemantics:
    def test_pread_pwrite_offsets(self, anyfs):
        with anyfs.create("/f") as handle:
            handle.pwrite(0, b"0123456789")
            assert handle.pread(3, 4) == b"3456"

    def test_read_past_eof_truncated(self, anyfs):
        anyfs.write_file("/f", b"short")
        with anyfs.open("/f") as handle:
            assert handle.pread(3, 100) == b"rt"
            assert handle.pread(100, 10) == b""

    def test_overwrite_middle(self, anyfs):
        anyfs.write_file("/f", b"a" * 10000)
        with anyfs.open("/f") as handle:
            handle.pwrite(5000, b"B" * 100)
        data = anyfs.read_file("/f")
        assert data[4999:5101] == b"a" + b"B" * 100 + b"a"
        assert len(data) == 10000

    def test_extend_via_write(self, anyfs):
        anyfs.write_file("/f", b"start")
        with anyfs.open("/f") as handle:
            handle.pwrite(5, b" end")
        assert anyfs.read_file("/f") == b"start end"

    def test_truncate_shrink(self, anyfs):
        anyfs.write_file("/f", b"x" * 10000)
        with anyfs.open("/f") as handle:
            handle.truncate(100)
        assert anyfs.read_file("/f") == b"x" * 100

    def test_truncate_then_extend_reads_zeros(self, anyfs):
        anyfs.write_file("/f", b"y" * 5000)
        with anyfs.open("/f") as handle:
            handle.truncate(100)
            handle.pwrite(200, b"z")
        data = anyfs.read_file("/f")
        assert data[100:200] == b"\x00" * 100
        assert data[:100] == b"y" * 100

    def test_truncate_grow(self, anyfs):
        anyfs.write_file("/f", b"ab")
        with anyfs.open("/f") as handle:
            handle.truncate(10)
        assert anyfs.read_file("/f") == b"ab" + b"\x00" * 8

    def test_sequential_handle_io(self, anyfs):
        with anyfs.create("/f") as handle:
            handle.write(b"one")
            handle.write(b"two")
        with anyfs.open("/f") as handle:
            assert handle.read(3) == b"one"
            assert handle.read() == b"two"

    def test_stat_fields(self, anyfs):
        anyfs.clock.advance(1.0)
        anyfs.write_file("/f", b"abc")
        result = anyfs.stat("/f")
        assert result.size == 3
        assert result.ftype is FileType.REGULAR
        assert result.nlink == 1
        assert result.mtime > 0

    def test_write_file_replaces(self, anyfs):
        anyfs.write_file("/f", b"old contents are longer")
        anyfs.write_file("/f", b"new")
        assert anyfs.read_file("/f") == b"new"

    def test_closed_handle_rejected(self, anyfs):
        handle = anyfs.create("/f")
        handle.close()
        with pytest.raises(StaleHandleError):
            handle.write(b"x")

    def test_block_boundary_writes(self, anyfs):
        bs = anyfs.block_size
        payload = b"A" * (bs - 1) + b"B" * 2 + b"C" * (bs - 1)
        anyfs.write_file("/f", payload)
        anyfs.sync()
        anyfs.flush_caches()
        assert anyfs.read_file("/f") == payload
