"""Cumulative disk statistics.

The benchmarks derive most paper metrics from these counters: bytes moved,
request counts split by direction and positioning tier, how many requests
were synchronous (blocked the caller), and total disk busy time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.export import format_fields
from repro.units import fmt_bytes, fmt_time


@dataclass
class DiskStats:
    """Counters accumulated by :class:`repro.disk.sim_disk.SimDisk`."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    sync_requests: int = 0
    busy_seconds: float = 0.0
    tier_counts: Dict[str, int] = field(default_factory=dict)
    read_retries: int = 0
    """Transient read errors absorbed by the retry loop."""
    vectored_reads: int = 0
    """Multi-block reads issued as one transfer (readahead)."""

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def seeks(self) -> int:
        """Requests that required head repositioning (near or far)."""
        return self.tier_counts.get("near", 0) + self.tier_counts.get("far", 0)

    def record(
        self,
        is_write: bool,
        nbytes: int,
        sync: bool,
        tier: str,
        duration: float,
    ) -> None:
        if is_write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes
        if sync:
            self.sync_requests += 1
        self.busy_seconds += duration
        self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1

    def summary(self) -> str:
        return format_fields(
            [
                (
                    "",
                    f"{self.requests} requests ({self.reads} reads "
                    f"{fmt_bytes(self.bytes_read)}, {self.writes} writes "
                    f"{fmt_bytes(self.bytes_written)})",
                ),
                ("", f"{self.sync_requests} sync"),
                ("", f"{self.seeks} seeks"),
                ("busy", fmt_time(self.busy_seconds)),
            ]
        )
