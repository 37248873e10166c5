"""Stateful property testing: random operation sequences vs a model.

A hypothesis state machine drives a small LFS (and, separately, FFS)
through creates, writes, truncates, deletes, nested mkdirs, syncs,
cleans, crashes and remounts, and checks the file system against a
:class:`~repro.faults.model.ModelFS` after every step: every file holds
its latest state and every directory lists what the model lists.  A
sync, a checkpoint and a clean unmount are barriers.  An LFS crash,
with or without a sync before it, must recover each path to one of its
whole-mutation states at or above the last barrier's floor: exactly
the latest after a sync.  This is the test that hunts for cross-feature
interactions (e.g. cleaning a segment whose file was just truncated).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.faults.model import ModelFS
from repro.ffs.filesystem import FastFileSystem
from repro.lfs.filesystem import LogStructuredFS
from repro.rig import new_rig
from repro.units import KIB, MIB
from tests.conftest import small_ffs_config, small_lfs_config

_DIR_NAMES = ["/d0", "/d1", "/d0/e"]
_FILE_NAMES = [f"/f{i}" for i in range(6)] + ["/d0/f6", "/d0/e/f7", "/d1/f8"]
_payloads = st.binary(min_size=0, max_size=40 * KIB)


def _parent(path):
    return path.rsplit("/", 1)[0] or "/"


class _FsMachine(RuleBasedStateMachine):
    """Shared machine body; subclasses pick the file system."""

    kind = None  # "lfs" / "ffs", set by subclasses

    @initialize()
    def setup(self):
        rig = new_rig(
            self.kind,
            total_bytes=48 * MIB,
            lfs_config=small_lfs_config(),
            ffs_config=small_ffs_config(),
        )
        self.fs, self.cpu, self.disk = rig.fs, rig.cpu, rig.disk
        self.model = ModelFS()

    def _is_file(self, name):
        return name in self.model.files()

    # -- operations -----------------------------------------------------

    @rule(name=st.sampled_from(_FILE_NAMES), payload=_payloads)
    def write_whole_file(self, name, payload):
        if _parent(name) not in self.model.dirs():
            return
        if self._is_file(name):
            self.model.truncate(name, 0)
        else:
            self.model.create(name)
        self.fs.write_file(name, payload)
        self.model.write(name, 0, payload)

    @rule(
        name=st.sampled_from(_FILE_NAMES),
        offset=st.integers(0, 60 * KIB),
        payload=st.binary(min_size=1, max_size=8 * KIB),
    )
    def pwrite(self, name, offset, payload):
        if not self._is_file(name):
            return
        with self.fs.open(name) as handle:
            handle.pwrite(offset, payload)
        self.model.write(name, offset, payload)

    @rule(name=st.sampled_from(_FILE_NAMES), size=st.integers(0, 50 * KIB))
    def truncate(self, name, size):
        if not self._is_file(name):
            return
        with self.fs.open(name) as handle:
            handle.truncate(size)
        self.model.truncate(name, size)

    @rule(name=st.sampled_from(_FILE_NAMES))
    def delete(self, name):
        if not self._is_file(name):
            return
        self.fs.unlink(name)
        self.model.unlink(name)

    @rule(name=st.sampled_from(_DIR_NAMES))
    def mkdir(self, name):
        dirs = self.model.dirs()
        if name in dirs or _parent(name) not in dirs:
            return
        self.fs.mkdir(name)
        self.model.mkdir(name)

    @rule()
    def sync(self):
        self.fs.sync()
        self.model.barrier()

    @rule()
    def advance_time(self):
        self.fs.clock.advance(31.0)  # runs the age-based write-back past due

    def remount_as(self, fs_class, config):
        self.fs.unmount()
        self.fs = fs_class.mount(self.disk, self.cpu, config)
        self.model.barrier()

    # -- invariants -------------------------------------------------

    @invariant()
    def files_match_model(self):
        if not hasattr(self, "fs"):
            return
        assert self.model.check(self.fs, require_latest=True) == []
        for name in self.model.dirs():
            assert self.fs.listdir(name) == self.model.listdir(name), name


class LfsMachine(_FsMachine):
    kind = "lfs"

    @rule()
    def checkpoint(self):
        self.fs.checkpoint()
        self.model.barrier()

    @rule()
    def clean(self):
        self.fs.clean_now(self.fs.layout.num_segments)

    @rule()
    def remount(self):
        self.remount_as(LogStructuredFS, small_lfs_config())

    @rule(sync=st.booleans())
    def crash_and_recover(self, sync):
        if sync:
            self.sync()
        self.fs.crash()
        self.disk.revive()
        self.fs = LogStructuredFS.mount(self.disk, self.cpu, small_lfs_config())
        # Roll-forward: exactly the synced state after a sync, else a
        # whole-mutation state per path at or above the floor.
        assert self.model.check(self.fs) == []
        self.model.reconcile(self.fs)


class FfsMachine(_FsMachine):
    kind = "ffs"

    @rule()
    def remount(self):
        self.remount_as(FastFileSystem, small_ffs_config())


TestLfsStateful = LfsMachine.TestCase
TestLfsStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestFfsStateful = FfsMachine.TestCase
TestFfsStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
