"""The reference model: state histories, floors, acks and the check."""

import pytest

from repro.errors import FileNotFoundError_
from repro.faults.model import ModelFS
from repro.lfs.filesystem import make_lfs
from repro.units import MIB


@pytest.fixture
def fs():
    fs = make_lfs(total_bytes=8 * MIB)
    yield fs
    fs.unmount()


class TestModelFS:
    def test_create_write_unlink_history(self, fs):
        model = ModelFS()
        model.create("/f")
        model.write("/f", 0, b"hello")
        model.write("/f", 5, b" world")
        model.unlink("/f")
        # absent -> empty -> "hello" -> "hello world" -> absent: with no
        # barrier every one of them is admissible after a crash.
        fs.write_file("/f", b"hello")
        assert model.check(fs) == []
        (violation,) = model.check(fs, require_latest=True)
        assert "matches none of state 4 (5 recorded" in violation
        assert model.files() == []
        with pytest.raises(FileNotFoundError_):
            model.read_file("/f")

    def test_sparse_write_zero_fills_the_gap(self):
        model = ModelFS()
        model.create("/f")
        model.write("/f", 4, b"xy")
        assert model.read_file("/f") == b"\x00\x00\x00\x00xy"
        model.truncate("/f", 8)
        assert model.read_file("/f") == b"\x00\x00\x00\x00xy\x00\x00"
        model.truncate("/f", 5)
        assert model.read_file("/f") == b"\x00\x00\x00\x00x"

    def test_barrier_advances_every_floor(self, fs):
        model = ModelFS()
        model.create("/a")
        model.write("/a", 0, b"one")
        model.create("/b")
        model.barrier()
        model.write("/a", 0, b"two")
        fs.write_file("/a", b"one")
        fs.write_file("/b", b"")
        assert model.check(fs) == []  # "one" is the floor
        fs.write_file("/a", b"")  # older than the floor
        (violation,) = model.check(fs)
        assert violation.startswith("/a: ")
        assert "states [2..3]" in violation and "floor 2" in violation

    def test_ack_records_state_index_and_trace_root(self, fs):
        ctx = type("Ctx", (), {"root_id": 42})()
        model = ModelFS()
        model.create("/f")
        model.write("/f", 0, b"data")
        model.ack("/f", 1.5, ctx)
        assert model.acks == [("/f", 2, 1.5, 42)]
        model.barrier()
        (violation,) = model.check(fs)  # the acked file never reached fs
        assert "observed absent/0B" in violation
        assert "1 acks, last ack state 2 at t=1.500000" in violation
        assert "trace_root=42" in violation

    def test_check_accepts_any_state_at_or_above_floor(self, fs):
        model = ModelFS()
        model.create("/f")
        model.write("/f", 0, b"v1")
        fs.write_file("/f", b"v1")
        # The model moves ahead of the fs: the recorded v2 never lands.
        model.write("/f", 0, b"v2")
        assert model.check(fs) == []  # v1 is >= floor 0: admissible
        violations = model.check(fs, require_latest=True)
        assert len(violations) == 1
        assert "/f" in violations[0]
        assert model.checks == 2

    def test_check_rejects_state_below_the_floor(self, fs):
        model = ModelFS()
        model.create("/f")
        model.write("/f", 0, b"old")
        fs.write_file("/f", b"old")
        model.write("/f", 0, b"new")
        model.barrier()  # "new" is now promised durable
        violations = model.check(fs)  # fs still holds "old"
        assert len(violations) == 1
        assert "floor" in violations[0]

    def test_reconcile_restarts_history_at_observed_state(self, fs):
        model = ModelFS()
        model.create("/f")
        model.write("/f", 0, b"kept")
        fs.write_file("/f", b"kept")
        model.write("/f", 0, b"lost")
        model.create("/gone")  # never reached the fs
        model.barrier()
        model.reconcile(fs)
        assert model.check(fs, require_latest=True) == []
        assert model.files() == ["/f"]
        assert model.read_file("/f") == b"kept"
        # The floor restarted at zero: the next state may be lost.
        model.write("/f", 4, b"!")
        assert model.check(fs) == []

    def test_directories_are_states_and_listed(self, fs):
        model = ModelFS()
        model.mkdir("/d")
        model.create("/d/f")
        model.create("/g")
        assert model.dirs() == ["/", "/d"]
        assert model.files() == ["/d/f", "/g"]
        assert model.listdir("/") == ["d", "g"]
        assert model.listdir("/d") == ["f"]
        fs.write_file("/g", b"")
        model.barrier()
        violations = model.check(fs)
        assert [v.split(":")[0] for v in violations] == ["/d", "/d/f"]
        fs.mkdir("/d")
        fs.write_file("/d/f", b"")
        assert model.check(fs, require_latest=True) == []
