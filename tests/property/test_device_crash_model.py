"""Property test: the device's incremental durability tracking (deque +
monotone horizon, length-only records over zeros) is observationally
identical to the naive model it replaced — a flat pending list of full
copies, rebuilt on every ``mark_durable`` and rolled back
record-by-record (whole or torn) on ``crash``."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.device import SectorDevice
from repro.faults.device import FaultyDevice

NUM_SECTORS = 16
SECTOR_SIZE = 32


class NaiveCrashModel:
    """The pre-optimization semantics, implemented as literally as
    possible: every write appends an undo record, every ``mark_durable``
    filters the whole list, ``crash`` pops records in reverse write
    order."""

    def __init__(self) -> None:
        self.data = bytearray(NUM_SECTORS * SECTOR_SIZE)
        self.pending = []  # (completion_time, sector, old_data)

    def write(
        self,
        sector: int,
        data: bytes,
        completion_time: float,
        durable: bool = False,
    ) -> None:
        start = sector * SECTOR_SIZE
        if not durable:
            self.pending.append(
                (
                    completion_time,
                    sector,
                    bytes(self.data[start : start + len(data)]),
                )
            )
        self.data[start : start + len(data)] = data

    def mark_durable(self, now: float) -> None:
        self.pending = [p for p in self.pending if p[0] > now]

    def crash(self, now: float, rng=None, tear_probability=0.0) -> None:
        """Roll back in reverse write order; with ``rng``, a multi-sector
        record tears with ``tear_probability``, keeping a random
        non-empty prefix of its new sectors."""
        self.mark_durable(now)
        while self.pending:
            _, sector, old_data = self.pending.pop()
            nsectors = len(old_data) // SECTOR_SIZE
            keep = 0
            if rng is not None and nsectors > 1 and rng.random() < tear_probability:
                keep = rng.randrange(1, nsectors)
            start = (sector + keep) * SECTOR_SIZE
            self.data[start : start + len(old_data) - keep * SECTOR_SIZE] = (
                old_data[keep * SECTOR_SIZE :]
            )

    def flip_bit(self, sector: int, bit: int) -> None:
        self.data[sector * SECTOR_SIZE + bit // 8] ^= 1 << (bit % 8)


def sector_payloads():
    # All-zero sectors are drawn as often as arbitrary ones: over zeros
    # the device keeps only the record's length.
    return st.one_of(
        st.just(bytes(SECTOR_SIZE)),
        st.binary(min_size=SECTOR_SIZE, max_size=SECTOR_SIZE),
    )


@st.composite
def writes(draw):
    """``(sector, data)`` of one to four sectors, so a write can span
    sectors written before and sectors never written."""
    sector = draw(st.integers(min_value=0, max_value=NUM_SECTORS - 1))
    count = draw(st.integers(min_value=1, max_value=min(4, NUM_SECTORS - sector)))
    parts = draw(st.lists(sector_payloads(), min_size=count, max_size=count))
    return sector, b"".join(parts)


times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


# Writes may carry arbitrary (non-monotone) completion times — exactly
# the case where the optimized device must fall back from the deque
# prefix-drain to the full filter.  mark_durable times are drawn freely
# too; the horizon logic has to cope with them arriving out of order.
write_op = st.tuples(st.just("write"), writes(), times)
mark_op = st.tuples(st.just("mark_durable"), times)
ops = st.lists(
    st.one_of(write_op, mark_op, st.tuples(st.just("crash"), times)),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(ops)
def test_device_matches_naive_reference(operations):
    device = SectorDevice(NUM_SECTORS, SECTOR_SIZE)
    model = NaiveCrashModel()
    for op in operations:
        if op[0] == "write":
            _, (sector, data), completion = op
            device.write(sector, data, completion_time=completion)
            model.write(sector, data, completion)
        elif op[0] == "mark_durable":
            device.mark_durable(op[1])
            model.mark_durable(op[1])
        else:
            device.crash(op[1])
            model.crash(op[1])
            device.revive()
        assert bytes(device.read(0, NUM_SECTORS)) == bytes(model.data)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(writes(), times), min_size=1, max_size=20), times)
def test_crash_rolls_back_in_reverse_write_order(issued, crash_time):
    """Overlapping writes must unwind newest-first, so the surviving
    bytes are exactly the state as of the last durable write."""
    device = SectorDevice(NUM_SECTORS, SECTOR_SIZE)
    model = NaiveCrashModel()
    for (sector, data), completion in issued:
        device.write(sector, data, completion_time=completion)
        model.write(sector, data, completion)
    device.crash(crash_time)
    model.crash(crash_time)
    device.revive()
    assert bytes(device.read(0, NUM_SECTORS)) == bytes(model.data)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(writes(), times, st.booleans()), max_size=30))
def test_durable_writes_never_roll_back(issued):
    """``durable=True`` (the sync-request path, where the caller has
    already advanced the clock past the completion time) must pin the
    bytes across any crash."""
    device = SectorDevice(NUM_SECTORS, SECTOR_SIZE)
    model = NaiveCrashModel()
    for (sector, data), completion, durable in issued:
        device.write(sector, data, completion_time=completion, durable=durable)
        model.write(sector, data, completion, durable=durable)
    device.crash(0.0)
    model.crash(0.0)
    device.revive()
    assert bytes(device.read(0, NUM_SECTORS)) == bytes(model.data)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            write_op,
            mark_op,
            st.tuples(
                st.just("flip"),
                st.integers(min_value=0, max_value=NUM_SECTORS - 1),
                st.integers(min_value=0, max_value=SECTOR_SIZE * 8 - 1),
            ),
        ),
        max_size=30,
    ),
    times,
)
def test_writes_over_flipped_bits_roll_back_to_them(operations, crash_time):
    """A bit flip puts a non-zero byte where no write went; a later
    write over it must keep the flipped bytes for its rollback."""
    device = FaultyDevice(NUM_SECTORS, SECTOR_SIZE)
    model = NaiveCrashModel()
    for op in operations:
        if op[0] == "write":
            _, (sector, data), completion = op
            device.write(sector, data, completion_time=completion)
            model.write(sector, data, completion)
        elif op[0] == "mark_durable":
            device.mark_durable(op[1])
            model.mark_durable(op[1])
        else:
            device.flip_bit(op[1], op[2])
            model.flip_bit(op[1], op[2])
    device.crash(crash_time)
    model.crash(crash_time)
    device.revive()
    assert bytes(device.read(0, NUM_SECTORS)) == bytes(model.data)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            write_op,
            mark_op,
            st.tuples(
                st.just("crash"),
                times,
                st.integers(min_value=0, max_value=2**32),
                st.sampled_from([0.0, 0.5, 1.0]),
            ),
        ),
        max_size=40,
    )
)
def test_torn_crash_matches_naive_tearing(operations):
    """A torn rollback restores only the suffix past the surviving
    prefix — zeros for a length-only record, the copied bytes
    otherwise — exactly as the model tears its full copies."""
    device = SectorDevice(NUM_SECTORS, SECTOR_SIZE)
    model = NaiveCrashModel()
    for op in operations:
        if op[0] == "write":
            _, (sector, data), completion = op
            device.write(sector, data, completion_time=completion)
            model.write(sector, data, completion)
        elif op[0] == "mark_durable":
            device.mark_durable(op[1])
            model.mark_durable(op[1])
        else:
            _, now, seed, tear = op
            device.crash(now, rng=random.Random(seed), tear_probability=tear)
            model.crash(now, rng=random.Random(seed), tear_probability=tear)
            device.revive()
        assert bytes(device.read(0, NUM_SECTORS)) == bytes(model.data)
