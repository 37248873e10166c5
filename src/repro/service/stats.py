"""Per-run service statistics and the rendered report.

:class:`ServiceStats` is the service layer's equivalent of
``CleanerStats``/``DiskStats``: plain counters plus the raw per-request
latency samples, kept exactly so percentiles are deterministic (the
telemetry histograms bucket; the report does not).  Everything here is
simulated time — rendering the report twice for identical runs yields
byte-identical text, which the seeded-determinism test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

REQUEST_KINDS = ("write", "fsync", "read", "open", "delete")


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


@dataclass
class ServiceStats:
    """Counters and samples collected by one scheduler run."""

    started: float = 0.0
    finished: float = 0.0
    submitted: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    dropped: int = 0
    rejections: int = 0
    rejected_degraded: int = 0
    degraded_failures: int = 0
    throttle_events: int = 0
    throttle_seconds: float = 0.0
    forced_admissions: int = 0
    background_flushes: int = 0
    commit_batches: List[int] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=dict)

    # -- recording -----------------------------------------------------

    def note_submitted(self, kind: str) -> None:
        self.submitted[kind] = self.submitted.get(kind, 0) + 1

    def note_completed(self, kind: str, latency: float) -> None:
        self.completed += 1
        self.latencies.setdefault(kind, []).append(latency)

    def note_batch(self, size: int) -> None:
        self.commit_batches.append(size)

    # -- derived -------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return max(0.0, self.finished - self.started)

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.elapsed if self.elapsed else 0.0

    @property
    def batch_mean(self) -> float:
        if not self.commit_batches:
            return 0.0
        return sum(self.commit_batches) / len(self.commit_batches)

    def all_latencies(self) -> List[float]:
        merged: List[float] = []
        for kind in REQUEST_KINDS:
            merged.extend(self.latencies.get(kind, []))
        return merged

    def p99(self) -> float:
        return percentile(self.all_latencies(), 0.99)

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        merged = self.all_latencies()
        return {
            "elapsed_seconds": round(self.elapsed, 9),
            "submitted": {
                kind: self.submitted.get(kind, 0)
                for kind in REQUEST_KINDS
            },
            "completed": self.completed,
            "dropped": self.dropped,
            "rejections": self.rejections,
            "rejected_degraded": self.rejected_degraded,
            "degraded_failures": self.degraded_failures,
            "throughput_per_second": round(self.throughput, 6),
            "latency_p50_seconds": round(percentile(merged, 0.50), 9),
            "latency_p99_seconds": round(percentile(merged, 0.99), 9),
            "commit_batches": len(self.commit_batches),
            "commit_batch_mean": round(self.batch_mean, 6),
            "commit_batch_max": (
                max(self.commit_batches) if self.commit_batches else 0
            ),
            "throttle_events": self.throttle_events,
            "throttle_seconds": round(self.throttle_seconds, 9),
            "forced_admissions": self.forced_admissions,
            "background_flushes": self.background_flushes,
        }

    def render(self, title: str = "service") -> str:
        d = self.to_dict()
        lines = [f"== {title} =="]
        lines.append(
            f"  requests: {self.completed} completed, "
            f"{self.dropped} dropped, {self.rejections} rejections"
        )
        mix = ", ".join(
            f"{kind}={d['submitted'][kind]}" for kind in REQUEST_KINDS
        )
        lines.append(f"  submitted: {mix}")
        lines.append(
            f"  elapsed: {d['elapsed_seconds']:.6f}s simulated, "
            f"throughput {d['throughput_per_second']:.1f} req/s"
        )
        lines.append(
            f"  latency: p50 {d['latency_p50_seconds'] * 1000:.3f}ms, "
            f"p99 {d['latency_p99_seconds'] * 1000:.3f}ms"
        )
        lines.append(
            f"  group commit: {d['commit_batches']} batches, "
            f"mean {d['commit_batch_mean']:.2f} fsyncs/flush, "
            f"max {d['commit_batch_max']}"
        )
        lines.append(
            f"  backpressure: {self.throttle_events} throttles, "
            f"{d['throttle_seconds']:.6f}s throttled, "
            f"{self.forced_admissions} forced admissions"
        )
        lines.append(
            f"  background flushes: {self.background_flushes}"
        )
        if self.rejected_degraded or self.degraded_failures:
            lines.append(
                f"  degraded: {self.rejected_degraded} writes shed, "
                f"{self.degraded_failures} in-flight failures"
            )
        return "\n".join(lines)
