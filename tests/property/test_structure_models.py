"""Property tests of data structures against simple reference models."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.inode import BlockMap, FileType, Inode, N_DIRECT, NIL
from repro.errors import CorruptionError
from repro.ffs.bitmaps import Bitmap

BS = 4096


class BitmapMachine(RuleBasedStateMachine):
    """A Bitmap must behave exactly like a set of integers."""

    def __init__(self):
        super().__init__()
        self.bitmap = Bitmap(64)
        self.model = set()

    @rule(index=st.integers(0, 63))
    def set_bit(self, index):
        if index in self.model:
            try:
                self.bitmap.set(index)
                raise AssertionError("double set must raise")
            except CorruptionError:
                return
        self.bitmap.set(index)
        self.model.add(index)

    @rule(index=st.integers(0, 63))
    def clear_bit(self, index):
        if index not in self.model:
            try:
                self.bitmap.clear(index)
                raise AssertionError("double clear must raise")
            except CorruptionError:
                return
        self.bitmap.clear(index)
        self.model.discard(index)

    @rule(hint=st.integers(0, 63))
    def alloc(self, hint):
        result = self.bitmap.alloc_near(hint)
        if len(self.model) == 64:
            assert result is None
        else:
            assert result is not None
            assert result not in self.model
            self.model.add(result)

    @rule()
    def roundtrip(self):
        clone = Bitmap.from_bytes(self.bitmap.to_bytes(), 64)
        assert clone == self.bitmap

    @invariant()
    def counts_match(self):
        assert self.bitmap.used_count == len(self.model)
        assert {i for i in range(64) if self.bitmap.is_set(i)} == self.model


TestBitmapModel = BitmapMachine.TestCase
TestBitmapModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class BlockMapMachine(RuleBasedStateMachine):
    """The pointer tree must behave like a dict {lbn: addr}."""

    def __init__(self):
        super().__init__()
        self.blocks = {}
        self.map = BlockMap(
            BS, self._load, lambda key: None, lambda key: key in self.blocks
        )
        self.inode = Inode(inum=1, ftype=FileType.REGULAR)
        self.model = {}
        # Cover direct, single-indirect and double-indirect ranges.
        ppb = BS // 8
        self.lbns = st.sampled_from(
            [0, 3, N_DIRECT - 1, N_DIRECT, N_DIRECT + 7, N_DIRECT + ppb - 1,
             N_DIRECT + ppb, N_DIRECT + ppb + 5, N_DIRECT + 2 * ppb + 1]
        )

    def _load(self, key, addr):
        if key not in self.blocks:
            self.blocks[key] = [NIL] * (BS // 8)
        return self.blocks[key]

    @rule(data=st.data(), addr=st.integers(1, 2**40))
    def set_pointer(self, data, addr):
        lbn = data.draw(self.lbns)
        old = self.map.set(self.inode, lbn, addr)
        assert old == self.model.get(lbn, NIL)
        self.model[lbn] = addr

    @rule(data=st.data())
    def clear_pointer(self, data):
        lbn = data.draw(self.lbns)
        if lbn not in self.model:
            return
        old = self.map.set(self.inode, lbn, NIL)
        assert old == self.model[lbn]
        del self.model[lbn]

    @invariant()
    def lookups_match(self):
        for lbn in (0, N_DIRECT, N_DIRECT + BS // 8, N_DIRECT + BS // 8 + 5):
            assert self.map.get(self.inode, lbn) == self.model.get(lbn, NIL)


TestBlockMapModel = BlockMapMachine.TestCase
TestBlockMapModel.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
