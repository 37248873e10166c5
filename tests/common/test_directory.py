"""Unit tests for the directory block format."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import directory
from repro.common.directory import (
    DirectoryBlock,
    MAX_NAME_LEN,
    entry_size,
    validate_name,
)
from repro.errors import CorruptionError, InvalidArgumentError

BS = 1024


class TestValidateName:
    def test_accepts_normal_names(self):
        validate_name("file.txt")
        validate_name("ünïcode")

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            validate_name("")

    def test_rejects_slash(self):
        with pytest.raises(InvalidArgumentError):
            validate_name("a/b")

    def test_rejects_dot_names(self):
        with pytest.raises(InvalidArgumentError):
            validate_name(".")
        with pytest.raises(InvalidArgumentError):
            validate_name("..")

    def test_rejects_too_long(self):
        with pytest.raises(InvalidArgumentError):
            validate_name("x" * (MAX_NAME_LEN + 1))

    def test_accepts_max_length(self):
        validate_name("x" * MAX_NAME_LEN)


class TestEncodeDecode:
    def test_empty_block(self):
        block = DirectoryBlock(BS, [])
        assert block.encode() == b"\x00" * BS
        assert DirectoryBlock.decode(b"\x00" * BS, BS).entries == []

    def test_roundtrip(self):
        block = DirectoryBlock(BS, [])
        block.add("alpha", 10)
        block.add("βeta", 20)
        decoded = DirectoryBlock.decode(block.encode(), BS)
        assert decoded.entries == [("alpha", 10), ("βeta", 20)]

    def test_decode_rejects_oversized(self):
        with pytest.raises(CorruptionError):
            DirectoryBlock.decode(b"\x00" * (BS + 1), BS)

    def test_decode_rejects_garbage_header(self):
        data = b"\x05\x00\x00\x00\x00\x00" + b"\x00" * 100  # inum 5, len 0
        with pytest.raises(CorruptionError):
            DirectoryBlock.decode(data, BS)

    def test_decode_rejects_truncated_name(self):
        data = b"\x05\x00\x00\x00\xff\x00" + b"a" * 10
        with pytest.raises(CorruptionError):
            DirectoryBlock.decode(data, BS)


class TestMutation:
    def test_lookup(self):
        block = DirectoryBlock(BS, [("f", 3)])
        assert block.lookup("f") == 3
        assert block.lookup("g") is None

    def test_add_rejects_space_overflow(self):
        block = DirectoryBlock(60, [])  # room for 3 x 16-byte entries
        block.add("aaaaaaaaaa", 1)
        block.add("bbbbbbbbbb", 2)
        block.add("cccccccccc", 3)
        with pytest.raises(InvalidArgumentError):
            block.add("dddddddddd", 4)

    def test_add_rejects_bad_inum(self):
        block = DirectoryBlock(BS, [])
        with pytest.raises(InvalidArgumentError):
            block.add("ok", 0)

    def test_remove_returns_inum(self):
        block = DirectoryBlock(BS, [("a", 1), ("b", 2)])
        assert block.remove("a") == 1
        assert block.entries == [("b", 2)]

    def test_remove_missing_raises(self):
        block = DirectoryBlock(BS, [])
        with pytest.raises(InvalidArgumentError):
            block.remove("nope")

    def test_space_accounting(self):
        block = DirectoryBlock(BS, [])
        assert block.free_bytes() == BS
        block.add("abc", 1)
        assert block.used == entry_size("abc")
        assert block.free_bytes() == BS - entry_size("abc")

    def test_has_room_for(self):
        block = DirectoryBlock(entry_size("abc"), [])
        assert block.has_room_for("abc")
        assert not block.has_room_for("abcd")

    def test_as_dict(self):
        block = DirectoryBlock(BS, [("x", 1), ("y", 2)])
        assert block.as_dict() == {"x": 1, "y": 2}

    def test_entry_size_utf8(self):
        assert entry_size("é") == 6 + 2  # header + two UTF-8 bytes


# ----------------------------------------------------------------------
# The block edited in place against the encoder it replaced
# ----------------------------------------------------------------------


def oracle_encode(entries, block_size):
    """The old DirectoryBlock.encode: pack the entry list, join, zero-pad."""
    parts = []
    for name, inum in entries:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<IH", inum, len(encoded)))
        parts.append(encoded)
    data = b"".join(parts)
    assert len(data) <= block_size
    return data + b"\x00" * (block_size - len(data))


def check_against_oracle(block, model):
    expected = oracle_encode(model, block.block_size)
    assert bytes(block.data) == expected
    assert block.encode() == expected
    assert block.entries == model
    assert block.as_dict() == dict(model)
    assert block.used == sum(entry_size(name) for name, _ in model)
    assert block.free_bytes() == block.block_size - block.used
    again = DirectoryBlock.decode(block.encode(), block.block_size)
    assert again.entries == model
    assert (again.used, again.encode()) == (block.used, expected)


def run_schedule(block, steps):
    """Apply add/remove/decode steps, checking the oracle after each."""
    model = []
    for step in steps:
        if step[0] == "add":
            _, name, inum = step
            used = sum(entry_size(entry) for entry, _ in model)
            fits = used + entry_size(name) <= block.block_size
            if fits and name not in dict(model):
                block.add(name, inum)
                model.append((name, inum))
            else:
                with pytest.raises(InvalidArgumentError):
                    block.add(name, inum)
        elif step[0] == "remove":
            if not model:
                continue
            name, inum = model.pop(step[1] % len(model))
            assert block.remove(name) == inum
            assert block.lookup(name) is None
        else:
            block = type(block).decode(block.encode(), block.block_size)
        check_against_oracle(block, model)


class StaleTail(DirectoryBlock):
    """Broken on purpose: a removal leaves the old tail bytes behind."""

    def remove(self, name):
        tail = self.data[self.used - entry_size(name) : self.used]
        inum = super().remove(name)
        self.data[self.used : self.used + len(tail)] = tail
        return inum


class GapFiller(DirectoryBlock):
    """Broken on purpose: a new entry goes where the last removal was."""

    gap = None

    def remove(self, name):
        self.gap = self.entries.index((name, self.lookup(name)))
        return super().remove(name)

    def add(self, name, inum, encoded=None):
        super().add(name, inum, encoded)
        if self.gap is not None:
            entries = self.entries
            entries.insert(self.gap, entries.pop())
            self.data[:] = oracle_encode(entries, self.block_size)


class CountingHeader:
    """Stands in for the entry-header Struct and counts its use."""

    size = directory.ENTRY_HEADER_SIZE

    def __init__(self):
        self.unpacks = self.packs = 0

    def unpack_from(self, *args):
        self.unpacks += 1
        return struct.unpack_from("<IH", *args)

    def pack_into(self, *args):
        self.packs += 1
        struct.pack_into("<IH", *args)


_utf8_names = st.text(
    alphabet=st.characters(
        blacklist_characters="/", blacklist_categories=("Cs",)
    ),
    min_size=1,
    max_size=MAX_NAME_LEN,
).filter(
    lambda name: name not in (".", "..")
    and len(name.encode("utf-8")) <= MAX_NAME_LEN
)
# Mostly short names from a small alphabet, so that blocks fill up, names
# repeat and removals have neighbours; sometimes anything UTF-8 can say.
_names = st.one_of(
    st.text(alphabet="ab\x00\x01é", min_size=1, max_size=6), _utf8_names
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _names, st.integers(1, 0xFFFF_FFFF)),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("decode")),
    ),
    max_size=60,
)


class TestEditedInPlace:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(64, 4096), _steps)
    def test_bytes_always_equal_the_old_encode(self, block_size, steps):
        run_schedule(DirectoryBlock(block_size), steps)

    def test_oracle_catches_a_tail_left_dirty(self):
        steps = [("add", "a", 1), ("add", "b", 2), ("remove", 0)]
        run_schedule(DirectoryBlock(64), steps)
        with pytest.raises(AssertionError):
            run_schedule(StaleTail(64), steps)

    def test_oracle_catches_a_gap_filled_out_of_order(self):
        steps = [
            ("add", "a", 1), ("add", "b", 2), ("add", "c", 3),
            ("remove", 0), ("add", "d", 4),
        ]
        run_schedule(DirectoryBlock(64), steps)
        with pytest.raises(AssertionError):
            run_schedule(GapFiller(64), steps)

    def test_duplicate_name_in_a_corrupt_block_is_still_listed(self):
        listed = [("a", 1), ("b", 2), ("a", 3)]
        block = DirectoryBlock.decode(oracle_encode(listed, BS), BS)
        assert block.entries == listed
        assert block.lookup("a") == 3  # the last, as dict(entries) gives
        # Removing it leaves the other one, and the index knows.
        assert block.remove("a") == 3
        check_against_oracle(block, [("a", 1), ("b", 2)])
        assert block.lookup("a") == 1

    @pytest.mark.parametrize(
        "decoy",
        [("zz", 0x0061_0001), ("q\x01\x00a", 4)],
        ids=["in-a-header", "in-a-name"],
    )
    def test_remove_is_not_fooled_by_bytes_that_spell_the_entry(self, decoy):
        # b"\x01\x00a", the length-prefixed name "a", also occurs inside
        # the decoy entry, ahead of the real one.
        block = DirectoryBlock(BS, [decoy, ("a", 5), ("tail", 6)])
        assert bytes(block.data).count(b"\x01\x00a") == 2
        assert block.remove("a") == 5
        check_against_oracle(block, [decoy, ("tail", 6)])

    def test_decode_drops_what_follows_the_terminator(self):
        raw = bytearray(oracle_encode([("a", 1)], BS))
        raw[100:104] = b"junk"
        block = DirectoryBlock.decode(bytes(raw), BS)
        block.add("b", 2)
        check_against_oracle(block, [("a", 1), ("b", 2)])

    def test_add_rejects_a_name_already_in_the_block(self):
        block = DirectoryBlock(BS, [("a", 1)])
        with pytest.raises(InvalidArgumentError):
            block.add("a", 2)
        check_against_oracle(block, [("a", 1)])

    def test_an_edit_touches_no_entry_but_its_own(self, monkeypatch):
        work = {}
        for count in (10, 370):
            model = [(f"{i:05d}", i + 1) for i in range(count)]
            block = DirectoryBlock(4096, model)
            header = CountingHeader()
            monkeypatch.setattr(directory, "_ENTRY_HEADER", header)
            # The first entry: everything after it has to move down.
            block.remove("00000")
            block.add("added", 999)
            assert block.lookup("00369" if count == 370 else "00009")
            assert block.free_bytes() == 4096 - 11 * count
            work[count] = (header.unpacks, header.packs)
            monkeypatch.undo()
            check_against_oracle(block, model[1:] + [("added", 999)])
        assert work[10] == work[370] == (0, 1)
