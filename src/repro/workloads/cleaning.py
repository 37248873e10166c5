"""The segment-cleaning benchmark (Figure 5).

§5.3: "The varying utilization was generated by creating many
one-kilobyte files, deleting some fixed percentage of them, and
measuring the rate at which LFS could clean the fragmented segments."
The y-axis is kilobytes per second of *clean segments generated*.

Deleting every k-th file spreads the dead space uniformly, so the
segments being cleaned all sit near the target utilization — the
worst-case scenario the paper calls out (real workloads produce a
distribution of utilizations, not a spike).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidArgumentError
from repro.lfs.config import MAX_LIVE_FRACTION_TO_CLEAN
from repro.lfs.filesystem import LogStructuredFS
from repro.units import KIB


@dataclass(frozen=True)
class CleaningPoint:
    """One x/y point of Figure 5."""

    target_utilization: float
    measured_utilization: float
    segments_cleaned: int
    clean_seconds: float
    live_blocks_copied: int
    cleaner_bytes_written: int = 0
    """Log bytes the cleaning pass itself wrote (relocated live data)."""

    def net_segments_generated(self, segment_size: int) -> float:
        """Clean segments gained after subtracting the ones the
        cleaner's own relocation writes consumed — the paper's y-axis."""
        return self.segments_cleaned - self.cleaner_bytes_written / segment_size

    def clean_kb_per_second(self, segment_size: int) -> float:
        """Figure 5's y-axis: KB/s of (net) clean segments generated."""
        if self.clean_seconds <= 0:
            return float("inf")
        net_bytes = max(0.0, self.net_segments_generated(segment_size)) * (
            segment_size
        )
        return (net_bytes / KIB) / self.clean_seconds

    def gross_kb_per_second(self, segment_size: int) -> float:
        """Segments reclaimed per second ignoring relocation consumption."""
        if self.clean_seconds <= 0:
            return float("inf")
        return (self.segments_cleaned * segment_size / KIB) / self.clean_seconds


def run_cleaning_rate_test(
    fs: LogStructuredFS,
    target_utilization: float,
    fill_segments: int = 16,
    file_size: int = 1024,
    directory: str = "/churn",
) -> CleaningPoint:
    """Measure the cleaning rate at one target segment utilization."""
    if not 0.0 <= target_utilization < 1.0:
        raise InvalidArgumentError(
            f"utilization must be in [0, 1): {target_utilization}"
        )
    bs = fs.config.block_size
    files_per_segment = fs.config.segment_size // bs  # 1 file per block
    num_files = fill_segments * files_per_segment
    fs.mkdir(directory)
    payload = b"u" * file_size
    for index in range(num_files):
        with fs.create(f"{directory}/f{index}") as handle:
            handle.write(payload)
    fs.sync()

    # Delete every k-th file to leave ~target_utilization live per
    # segment.  keep_ratio of the files survive.
    keep = target_utilization
    kept = 0
    acc = 0.0
    for index in range(num_files):
        acc += keep
        if acc >= 1.0:
            acc -= 1.0
            kept += 1
            continue
        fs.unlink(f"{directory}/f{index}")
    fs.sync()

    victims_before = fs.usage.cleanable(MAX_LIVE_FRACTION_TO_CLEAN)
    measured_u = (
        sum(fs.usage.utilization(seg) for seg in victims_before)
        / len(victims_before)
        if victims_before
        else 1.0
    )

    cleaned_before = fs.cleaner.stats.segments_cleaned
    copied_before = fs.cleaner.stats.live_blocks_copied
    written_before = fs.segments.stats.cleaner_bytes_written
    start = fs.clock.now()
    fs.clean_now(fs.layout.num_segments)  # clean everything cleanable
    fs.disk.drain()
    elapsed = fs.clock.now() - start

    return CleaningPoint(
        target_utilization=target_utilization,
        measured_utilization=measured_u,
        segments_cleaned=fs.cleaner.stats.segments_cleaned - cleaned_before,
        clean_seconds=elapsed,
        live_blocks_copied=fs.cleaner.stats.live_blocks_copied - copied_before,
        cleaner_bytes_written=fs.segments.stats.cleaner_bytes_written - written_before,
    )
