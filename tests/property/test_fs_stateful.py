"""Stateful property testing: random operation sequences vs a model.

A hypothesis state machine drives a small LFS (and, separately, FFS)
through creates, writes, truncates, deletes, syncs, cleans, crashes and
remounts, comparing observable state against a dictionary model after
every step.  This is the test that hunts for cross-feature interactions
(e.g. cleaning a segment whose file was just truncated).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.ffs.filesystem import FastFileSystem
from repro.lfs.filesystem import LogStructuredFS
from repro.rig import new_rig
from repro.units import KIB, MIB
from tests.conftest import small_ffs_config, small_lfs_config

_FILE_NAMES = [f"/f{i}" for i in range(8)]
_payloads = st.binary(min_size=0, max_size=40 * KIB)


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
        self.model = {}
        self.synced_model = {}

    # -- operations -----------------------------------------------------

    @rule(name=st.sampled_from(_FILE_NAMES), payload=_payloads)
    def write_whole_file(self, name, payload):
        self.fs.write_file(name, payload)
        self.model[name] = payload

    @rule(
        name=st.sampled_from(_FILE_NAMES),
        offset=st.integers(0, 60 * KIB),
        payload=st.binary(min_size=1, max_size=8 * KIB),
    )
    def pwrite(self, name, offset, payload):
        if name not in self.model:
            return
        with self.fs.open(name) as handle:
            handle.pwrite(offset, payload)
        old = self.model[name]
        if offset > len(old):
            old = old + b"\x00" * (offset - len(old))
        self.model[name] = old[:offset] + payload + old[offset + len(payload):]

    @rule(name=st.sampled_from(_FILE_NAMES), size=st.integers(0, 50 * KIB))
    def truncate(self, name, size):
        if name not in self.model:
            return
        with self.fs.open(name) as handle:
            handle.truncate(size)
        old = self.model[name]
        if size <= len(old):
            self.model[name] = old[:size]
        else:
            self.model[name] = old + b"\x00" * (size - len(old))

    @rule(name=st.sampled_from(_FILE_NAMES))
    def delete(self, name):
        if name not in self.model:
            return
        self.fs.unlink(name)
        del self.model[name]

    @rule()
    def sync(self):
        self.fs.sync()
        self.synced_model = dict(self.model)

    @rule()
    def advance_time(self):
        self.fs.clock.advance(31.0)  # runs the age-based write-back past due

    # -- invariants -------------------------------------------------

    @invariant()
    def files_match_model(self):
        if not hasattr(self, "fs"):
            return
        names = set(self.fs.listdir("/"))
        assert names == {n.lstrip("/") for n in self.model}
        for name, payload in self.model.items():
            assert self.fs.read_file(name) == payload


class LfsMachine(_FsMachine):
    kind = "lfs"

    @rule()
    def checkpoint(self):
        self.fs.checkpoint()
        self.synced_model = dict(self.model)

    @rule()
    def clean(self):
        self.fs.clean_now(self.fs.layout.num_segments)

    @rule()
    def remount(self):
        self.fs.unmount()
        self.fs = LogStructuredFS.mount(self.disk, self.cpu, small_lfs_config())
        self.synced_model = dict(self.model)

    @rule()
    def crash_and_recover(self):
        self.fs.sync()
        synced = dict(self.model)
        self.fs.crash()
        self.disk.revive()
        self.fs = LogStructuredFS.mount(self.disk, self.cpu, small_lfs_config())
        # Everything synced must be recovered exactly (roll-forward).
        self.model = synced
        self.synced_model = dict(synced)


class FfsMachine(_FsMachine):
    kind = "ffs"

    @rule()
    def remount(self):
        self.fs.unmount()
        self.fs = FastFileSystem.mount(self.disk, self.cpu, small_ffs_config())


TestLfsStateful = LfsMachine.TestCase
TestLfsStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestFfsStateful = FfsMachine.TestCase
TestFfsStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
