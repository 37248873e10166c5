"""Service-layer configuration.

One :class:`ServiceConfig` describes a whole multi-client run: how many
clients, what each client's request stream looks like, how long the
group-commit window stays open, and where admission control draws its
backpressure watermark.  Everything is deterministic given ``seed`` —
the config deliberately contains no wall-clock quantities (all times
are simulated seconds on the shared :class:`~repro.sim.clock.SimClock`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError, InvalidArgumentError
from repro.lfs.config import LfsConfig
from repro.units import KIB, MIB

SERVICE_LFS_CONFIG = LfsConfig(
    segment_size=256 * KIB,
    cache_bytes=2 * MIB,
    max_inodes=4096,
)
"""The volume sizing every serviced rig boots with unless told
otherwise (``serve-sim``, each ``cluster-sim`` shard, every ``chaos``
trial): quarter-megabyte segments so a few dozen megabytes of device
still hold enough segments for cleaning and backpressure to be real."""

DEFAULT_MIX: Dict[str, float] = {
    "write": 0.40,
    "fsync": 0.25,
    "read": 0.15,
    "open": 0.05,
    "delete": 0.15,
}
"""Request mix: write-heavy with frequent fsync, the shape that makes
group commit matter (LogBase-style OLTP front-end over a log store)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable parameters of one simulated service run."""

    num_clients: int = 4
    """Concurrent client request streams."""

    seed: int = 0
    """Master seed; client ``i`` derives its own RNG from (seed, i)."""

    requests_per_client: int = 100
    """Requests each client issues before going quiet."""

    mix: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX)
    )
    """Relative weights of write / fsync / read / open / delete."""

    think_mean: float = 0.002
    """Mean client think time between requests (exponential, seconds)."""

    write_min_bytes: int = 1 * KIB
    write_max_bytes: int = 32 * KIB
    """Per-write payload size band (log-uniform within the band)."""

    commit_window: float = 0.01
    """Seconds a group-commit window stays open collecting fsyncs."""

    admission_capacity: int = 0
    """Bounded request queue depth; 0 means ``max(16, 4 * clients)``."""

    reserve_watermark: int = 2
    """Throttle writers when the cleaner's clean-segment reserve (clean
    segments beyond the writer's hard reserve) drops below this."""

    max_throttle_retries: int = 3
    """Throttle passes per request before it is force-admitted (the
    file system's own emergency cleaning is the last resort — the
    service must terminate even on a disk that cannot be cleaned)."""

    retry_backoff: float = 0.005
    """Seconds a rejected request waits before re-entering admission."""

    flusher_period: float = 0.5
    """Background flusher wake-up period (services the age trigger)."""

    max_files_per_client: int = 32
    min_files_per_client: int = 2
    """Working-set bounds for each client's private directory."""

    fill_fraction: float = 0.0
    """Pre-fill the log to this fraction of serviceable capacity before
    serving (0 disables).  High values exercise cleaner backpressure."""

    fragment_every: int = 8
    """During pre-fill, delete every Nth file to fragment segments."""

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise InvalidArgumentError(
                f"need at least one client: {self.num_clients}"
            )
        if self.requests_per_client < 1:
            raise InvalidArgumentError(
                f"need at least one request per client: "
                f"{self.requests_per_client}"
            )
        if self.commit_window < 0:
            raise InvalidArgumentError(
                f"negative commit window: {self.commit_window}"
            )
        if self.think_mean <= 0:
            raise InvalidArgumentError(
                f"think_mean must be positive: {self.think_mean}"
            )
        if not 0.0 <= self.fill_fraction < 1.0:
            raise InvalidArgumentError(
                f"fill_fraction must be in [0, 1): {self.fill_fraction}"
            )
        if self.min_files_per_client < 1:
            raise InvalidArgumentError("min_files_per_client must be >= 1")
        if self.max_files_per_client < self.min_files_per_client:
            raise InvalidArgumentError(
                "max_files_per_client below min_files_per_client"
            )
        unknown = set(self.mix) - set(DEFAULT_MIX)
        if unknown:
            raise InvalidArgumentError(
                f"unknown request kinds in mix: {sorted(unknown)}"
            )
        if not self.mix or sum(self.mix.values()) <= 0:
            raise InvalidArgumentError("request mix has no weight")
        if self.write_min_bytes < 1 or (
            self.write_max_bytes < self.write_min_bytes
        ):
            raise InvalidArgumentError(
                f"bad write size band: "
                f"[{self.write_min_bytes}, {self.write_max_bytes}]"
            )

    @property
    def effective_capacity(self) -> int:
        return self.admission_capacity or max(16, 4 * self.num_clients)


def validate_rig(
    service: Optional[ServiceConfig],
    lfs,
    device_bytes: Optional[int] = None,
) -> None:
    """Cross-check a service rig's configuration before it boots.

    Each dataclass validates its own fields in isolation; this checks
    the *relationships* a live rig depends on — segment size vs. cache
    size, watermarks vs. segment count, payloads vs. segments, the
    readahead window vs. the cache — and raises one typed
    :class:`~repro.errors.ConfigError` carrying **every** violated
    constraint, so a misconfigured rig is fixed in a single round trip
    instead of one rejection at a time.  ``device_bytes`` enables the
    capacity checks (skipped when the device size is not yet known);
    ``service=None`` validates a bare file-system rig (crashtest) and
    skips the service-coupled checks.
    """
    violations: List[str] = []
    if lfs.cache_bytes < 2 * lfs.segment_size:
        violations.append(
            f"cache_bytes ({lfs.cache_bytes}) below two segments "
            f"({2 * lfs.segment_size}): the write-back path needs room "
            f"to assemble a full segment while absorbing new dirty data"
        )
    if lfs.readahead_blocks > 0:
        window_bytes = lfs.readahead_blocks * lfs.block_size
        if window_bytes > lfs.cache_bytes // 4:
            violations.append(
                f"readahead window ({window_bytes} bytes) exceeds a "
                f"quarter of the cache ({lfs.cache_bytes} bytes): "
                f"prefetch would evict its own payload"
            )
    if service is not None and service.write_max_bytes > lfs.segment_size:
        violations.append(
            f"write_max_bytes ({service.write_max_bytes}) exceeds the "
            f"segment size ({lfs.segment_size}): one payload could "
            f"never fit a single log write"
        )
    if device_bytes is not None:
        from repro.lfs.config import LfsLayout

        num_segments = LfsLayout.for_device(lfs, device_bytes).num_segments
        if lfs.clean_high_water >= num_segments:
            violations.append(
                f"clean_high_water ({lfs.clean_high_water}) is not "
                f"below the device's segment count ({num_segments}): "
                f"the cleaner's target is unreachable"
            )
        # The admission watermark sits reserve_watermark above the fs's
        # own clean_low_water (see AdmissionController); if the sum of
        # hard reserve + watermark cannot fit, throttling engages
        # immediately and permanently.
        watermark = service.reserve_watermark if service is not None else 0
        floor = (
            lfs.cleaner_reserve_segments + lfs.clean_low_water + watermark
        )
        if floor >= num_segments:
            violations.append(
                f"cleaner_reserve_segments + clean_low_water + "
                f"reserve_watermark ({floor}) leaves no serviceable "
                f"segments on a {num_segments}-segment device"
            )
        if (
            service is not None
            and service.fill_fraction > 0
            and num_segments < 8
        ):
            violations.append(
                f"fill_fraction {service.fill_fraction} needs room to "
                f"fragment, but the device has only {num_segments} "
                f"segments (minimum 8)"
            )
    if violations:
        raise ConfigError(violations)
