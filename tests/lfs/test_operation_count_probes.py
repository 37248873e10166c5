"""Operation counts of a cleaning pass over a fragmented log.

The amortized-O(1) claims of the clean-segment heap and of the device's
durability tracking, asserted on a whole file system rather than on the
structures alone (``test_segment_usage_indexes.py`` fuzzes those)."""

from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import make_lfs
from repro.units import KIB, MIB
from repro.workloads.cleaning import run_cleaning_rate_test


def test_cleaning_pass_operation_counts():
    fs = make_lfs(total_bytes=16 * MIB, config=LfsConfig(segment_size=64 * KIB))
    # Figure 5's workload: segments left a quarter live, then cleaned.
    cleaned = run_cleaning_rate_test(fs, 0.25, fill_segments=24).segments_cleaned
    usage, device = fs.usage, fs.disk.device
    assert cleaned > 0
    usage.verify_indexes()

    # Each clean-heap entry is pushed once per to-CLEAN transition and
    # popped at most once: heap traffic is bounded by segment state
    # transitions, not by min_clean() calls times segments.
    assert (
        usage.heap_pushes
        == usage.num_segments + fs.cleaner.stats.segments_cleaned
    )
    assert usage.heap_pops <= usage.heap_pushes
    assert usage.min_clean_calls * usage.num_segments > 2 * usage.heap_pushes

    # Each durability undo record pays at most one drain step:
    # mark_durable work is bounded by records created, not by calls
    # times pending records.
    assert device.mark_durable_calls > 0
    assert 0 < device.durability_scan_steps <= device.undo_records_created

    # The cleaner copied live data, so the log grew by more than the
    # user wrote.
    wamp = fs.wamp_report()
    assert wamp["cleaner_bytes"] > 0
    assert wamp["write_amplification"] > 1
