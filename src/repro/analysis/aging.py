"""Long-run aging study.

The paper closes: "the real test of a file system is its performance
over months and years of use.  As of this writing LFS has not been
subjected to a 'real' workload for extended periods of time.  It is
from these workloads that the overheads due to cleaning can be
evaluated."

This module runs that study at simulation speed: the office/engineering
churn (§3's characterization) is applied in epochs, and after each
epoch we record the quantities the paper says matter — cumulative write
cost, the fraction of log writes that were cleaner traffic, how many
clean segments remain, and the distribution of segment utilizations
(whose shape §5.3 explicitly says "is currently not known").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.lfs.filesystem import LogStructuredFS
from repro.workloads.office import OfficeState, run_office_workload


@dataclass(frozen=True)
class AgingSample:
    """State of an LFS after one epoch of churn."""

    epoch: int
    operations_total: int
    write_cost: float
    cleaner_write_fraction: float
    clean_segments: int
    segments_cleaned_total: int
    live_fraction: float
    utilization_histogram: List[int]
    ops_per_second: float


@dataclass
class AgingStudy:
    """Per-epoch samples plus convergence helpers."""

    samples: List[AgingSample] = field(default_factory=list)

    def write_costs(self) -> List[float]:
        return [sample.write_cost for sample in self.samples]

    def steady_state_write_cost(self, tail: int = 3) -> float:
        """Mean write cost over the final ``tail`` epochs."""
        if not self.samples:
            return 0.0
        window = self.samples[-tail:]
        return sum(sample.write_cost for sample in window) / len(window)

    def converged(self, tail: int = 3, tolerance: float = 0.15) -> bool:
        """Did write cost settle (max deviation within the tail window)?"""
        if len(self.samples) < tail + 1:
            return False
        window = self.write_costs()[-tail:]
        center = sum(window) / len(window)
        if center == 0:
            return True
        return max(abs(value - center) for value in window) <= (
            tolerance * center
        )


def run_aging_study(
    fs: LogStructuredFS,
    epochs: int = 8,
    operations_per_epoch: int = 1500,
    target_population: int = 300,
    seed: int = 0,
    read_fraction: float = 0.4,
) -> AgingStudy:
    """Age an LFS through ``epochs`` rounds of office churn.

    The same directory and file population persist across epochs, so
    the log genuinely ages: segment utilizations spread out, the
    cleaner's share of the write traffic finds its steady state, and
    the write-cost series shows whether cleaning overhead is bounded.
    """
    study = AgingStudy()
    operations_total = 0
    state = OfficeState()
    for epoch in range(epochs):
        result = run_office_workload(
            fs,
            operations=operations_per_epoch,
            target_population=target_population,
            read_fraction=read_fraction,
            seed=seed + epoch,
            state=state,
        )
        operations_total += result.operations
        log_bytes = max(1, fs.segments.stats.log_bytes_written)
        study.samples.append(
            AgingSample(
                epoch=epoch,
                operations_total=operations_total,
                write_cost=fs.write_cost(),
                cleaner_write_fraction=(
                    fs.segments.stats.cleaner_bytes_written / log_bytes
                ),
                clean_segments=fs.usage.clean_count(),
                segments_cleaned_total=fs.cleaner.stats.segments_cleaned,
                live_fraction=(
                    fs.usage.total_live_bytes()
                    / fs.layout.data_capacity_bytes
                ),
                utilization_histogram=fs.segment_utilization_histogram(),
                ops_per_second=result.ops_per_second,
            )
        )
    return study
