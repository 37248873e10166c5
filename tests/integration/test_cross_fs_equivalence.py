"""Both storage managers must expose identical file semantics.

A deterministic pseudo-random operation stream is applied to LFS, FFS
and a :class:`~repro.faults.model.ModelFS`; afterwards (and after
remount) all three must agree on the namespace and every file's
contents.
"""

import random

import pytest

from repro.faults.model import ModelFS
from repro.ffs.filesystem import FastFileSystem
from repro.lfs.filesystem import LogStructuredFS
from tests.conftest import small_ffs_config, small_lfs_config


def apply_ops(fs, model, seed, n_ops=300):
    rng = random.Random(seed)
    for step in range(n_ops):
        op = rng.choice(
            ["create", "write", "append", "delete", "mkdir", "overwrite", "truncate"]
        )
        files, dirs = model.files(), model.dirs()
        if op == "mkdir":
            name = f"/dir{rng.randrange(8)}"
            if name in dirs or name in files:
                continue
            fs.mkdir(name)
            model.mkdir(name)
        elif op == "create":
            parent = rng.choice(dirs)
            name = f"{parent.rstrip('/')}/f{rng.randrange(40)}"
            if name in files or name in dirs:
                continue
            size = rng.randrange(0, 20000)
            payload = bytes([rng.randrange(256)]) * size
            fs.write_file(name, payload)
            model.create(name)
            model.write(name, 0, payload)
        elif op in ("write", "overwrite") and files:
            name = rng.choice(files)
            size = rng.randrange(0, 30000)
            payload = bytes([rng.randrange(256)]) * size
            fs.write_file(name, payload)
            model.truncate(name, 0)
            model.write(name, 0, payload)
        elif op == "append" and files:
            name = rng.choice(files)
            extra = bytes([rng.randrange(256)]) * rng.randrange(1, 5000)
            size = len(model.read_file(name))
            with fs.open(name) as handle:
                handle.pwrite(size, extra)
            model.write(name, size, extra)
        elif op == "truncate" and files:
            name = rng.choice(files)
            new_size = rng.randrange(0, len(model.read_file(name)) + 1)
            with fs.open(name) as handle:
                handle.truncate(new_size)
            model.truncate(name, new_size)
        elif op == "delete" and files:
            name = rng.choice(files)
            fs.unlink(name)
            model.unlink(name)


def assert_holds(fs, model):
    assert model.check(fs, require_latest=True) == []
    for name in model.dirs():
        assert fs.listdir(name) == model.listdir(name), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lfs_matches_model(disk, cpu, seed):
    fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
    model = ModelFS()
    apply_ops(fs, model, seed)
    assert_holds(fs, model)
    fs.unmount()
    again = LogStructuredFS.mount(disk, cpu, small_lfs_config())
    assert_holds(again, model)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ffs_matches_model(disk, cpu, seed):
    fs = FastFileSystem.mkfs(disk, cpu, small_ffs_config())
    model = ModelFS()
    apply_ops(fs, model, seed)
    assert_holds(fs, model)
    fs.unmount()
    again = FastFileSystem.mount(disk, cpu, small_ffs_config())
    assert_holds(again, model)


def test_both_systems_agree(clock, cpu):
    """The same op stream produces the same observable state on both."""
    from repro.disk.geometry import wren_iv
    from repro.disk.sim_disk import SimDisk
    from repro.units import MIB

    lfs = LogStructuredFS.mkfs(
        SimDisk(wren_iv(64 * MIB), clock), cpu, small_lfs_config()
    )
    ffs = FastFileSystem.mkfs(
        SimDisk(wren_iv(64 * MIB), clock), cpu, small_ffs_config()
    )
    model_a, model_b = ModelFS(), ModelFS()
    apply_ops(lfs, model_a, seed=99)
    apply_ops(ffs, model_b, seed=99)
    assert model_a.files() == model_b.files()
    for name in model_a.files():
        assert lfs.read_file(name) == ffs.read_file(name)
    assert lfs.listdir("/") == ffs.listdir("/")
