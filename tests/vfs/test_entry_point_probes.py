"""What one call of a vfs entry point costs, counted rather than timed.

Each namespace call splits its path once and walks it once; each CPU
charge is one ``SimClock.advance`` that lands on the float a chain of
separate additions gives; unlinking a file that only uses direct
pointers looks none of its blocks up; and truncating a file that reaches
into the double-indirect region walks each of its leaves once.
"""

from collections import Counter

import pytest

import repro.vfs.base as vfs_base
from repro.common.inode import N_DIRECT, BlockKind
from repro.lfs.filesystem import make_lfs
from repro.sim.clock import SimClock
from repro.units import KIB, MIB

BS = 4 * KIB
PPB = BS // 8


@pytest.fixture
def fs():
    fs = make_lfs(total_bytes=16 * MIB)
    fs.mkdir("/d")
    fs.write_file("/d/f", b"f" * 100)
    return fs


def _spy(monkeypatch, owner, name):
    """Record the first argument of every call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize(
    "op, path",
    [
        ("create", "/d/new"),
        ("unlink", "/d/f"),
        ("open", "/d/f"),
        ("mkdir", "/d/sub"),
    ],
)
def test_each_namespace_call_splits_its_path_once(fs, monkeypatch, op, path):
    splits = _spy(monkeypatch, vfs_base, "split_path")
    lookups = _spy(monkeypatch, fs.cpu, "path_lookup")
    getattr(fs, op)(path)
    assert splits == [path]
    assert lookups == [2 if op == "open" else 1]  # components walked


def test_each_cpu_charge_is_one_advance_of_a_separate_float(fs, monkeypatch):
    clock, cpu, costs = fs.clock, fs.cpu, fs.cpu.costs
    now, total = clock.now(), cpu.total_cpu_seconds
    advances = _spy(monkeypatch, clock, "advance")
    data = b"x" * (BS + 904)
    with fs.create("/d/g") as handle:
        handle.write(data)
    assert fs.read_file("/d/g") == data  # cached: no disk time
    fs.unlink("/d/g")
    expected = [
        costs.syscall, costs.path_component, costs.create,  # create
        costs.syscall, costs.block_touch * 2, costs.copy_per_byte * len(data),
        costs.syscall, costs.path_component * 2,  # open
        costs.syscall, costs.block_touch * 2, costs.copy_per_byte * len(data),
        costs.syscall, costs.path_component, costs.remove,  # unlink
    ]
    assert advances == expected
    reference = SimClock(now)
    for seconds in expected:
        reference.advance_to(reference.now() + seconds)
        total += seconds
    assert clock.now() == reference.now()  # bit for bit, not approx
    assert cpu.total_cpu_seconds == total


def test_unlinking_a_direct_only_file_looks_up_none_of_its_blocks(
    fs, monkeypatch
):
    with fs.create("/d/g") as handle:
        handle.write(b"g" * (N_DIRECT * BS))
    fs.sync()
    fs.flush_caches()
    assert len(fs.read_file("/d/g")) == N_DIRECT * BS
    inum = fs.stat("/d/g").inum
    looked_up = _spy(monkeypatch, fs.cache, "get")
    before = fs.cache.stats.lookups
    fs.unlink("/d/g")
    assert not [key for key in looked_up if key.inum == inum]
    # The one lookup is the directory block the entry is removed from.
    assert fs.cache.stats.lookups - before == len(looked_up) == 1


@pytest.mark.parametrize("cached", [True, False])
def test_truncating_into_the_double_indirect_region_walks_each_leaf_once(
    fs, monkeypatch, cached
):
    leaves = 3  # under the double-indirect root; the file also has leaf 0
    with fs.create("/d/big") as handle:
        for lbn in (5, N_DIRECT + 7) + tuple(
            N_DIRECT + j * PPB + 9 for j in range(1, leaves + 1)
        ):
            handle.pwrite(lbn * BS, b"b" * BS)
    fs.sync()
    if not cached:
        fs.flush_caches()
        fs.stat("/d/big")
    loads = _spy(monkeypatch, fs.block_map, "_load")
    before = fs.cache.stats.lookups
    with fs.open("/d/big") as handle:
        handle.truncate(3 * BS)
    inum = fs.stat("/d/big").inum
    walked = Counter(key for key in loads if key.kind is BlockKind.INDIRECT)
    assert walked == Counter(
        {(inum, BlockKind.INDIRECT, j): 1 for j in range(leaves + 1)}
    )
    # The cache still counts the lookups of the block-by-block loop, which
    # walked once for each dropped block and once more for each allocated
    # one: no lookup for a direct block, one (the leaf) under the inode's
    # own pointer, two (root, leaf) past it; then the root once more to
    # free each leaf under it.
    per_block = (
        (PPB + 1) * 1  # leaf 0
        + 2 * (PPB + 1) * 2  # leaves 1 and 2
        + (10 + 1) * 2  # leaf 3, which maps the file's last 10 blocks
        + leaves
    )
    assert fs.cache.stats.lookups - before == per_block
