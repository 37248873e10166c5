"""Service-layer configuration.

One :class:`ServiceConfig` describes a whole multi-client run: how many
clients and how many requests each issues, where admission control
draws its backpressure watermark, and how full the log starts.  The
request streams' shape (mix, think time, payload band, working set) is
fixed by the constants in :mod:`repro.service.scheduler` and the
payload band below, the group-commit window by
:data:`repro.service.committer.COMMIT_WINDOW`.  Everything is
deterministic given ``seed`` — the config deliberately contains no
wall-clock quantities (all times are simulated seconds on the shared
:class:`~repro.sim.clock.SimClock`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError, InvalidArgumentError
from repro.lfs.config import CLEAN_HIGH_WATER, CLEAN_LOW_WATER, LfsConfig, LfsLayout
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

WRITE_MIN_BYTES = 1 * KIB
WRITE_MAX_BYTES = 32 * KIB
"""Per-write payload size band (log-uniform within the band)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable parameters of one simulated service run."""

    num_clients: int = 4
    """Concurrent client request streams."""

    seed: int = 0
    """Master seed; client ``i`` derives its own RNG from (seed, i)."""

    requests_per_client: int = 100
    """Requests each client issues before going quiet."""

    reserve_watermark: int = 2
    """Throttle writers when the cleaner's clean-segment reserve (clean
    segments beyond the writer's hard reserve) drops below this."""

    fill_fraction: float = 0.0
    """Pre-fill the log to this fraction of serviceable capacity before
    serving (0 disables).  High values exercise cleaner backpressure."""

    fragment_every: int = 8
    """During pre-fill, delete every Nth file to fragment segments (0:
    delete none).  1 would delete every file, so the fill never grows."""

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
        if not 0.0 <= self.fill_fraction < 1.0:
            raise InvalidArgumentError(
                f"fill_fraction must be in [0, 1): {self.fill_fraction}"
            )
        if self.fragment_every != 0 and self.fragment_every < 2:
            raise InvalidArgumentError(
                f"fragment_every must be 0 or at least 2: {self.fragment_every}"
            )


def validate_rig(
    service: Optional[ServiceConfig],
    lfs,
    device_bytes: Optional[int] = None,
) -> None:
    """Cross-check a service rig's configuration before it boots.

    Each dataclass validates its own fields in isolation; this checks
    the *relationships* a live rig depends on — segment size vs. cache
    size, watermarks vs. segment count, payloads vs. segments — and
    raises one typed :class:`~repro.errors.ConfigError` carrying
    **every** violated constraint, so a misconfigured rig is fixed in a single round trip
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
    if service is not None and WRITE_MAX_BYTES > lfs.segment_size:
        violations.append(
            f"WRITE_MAX_BYTES ({WRITE_MAX_BYTES}) exceeds the "
            f"segment size ({lfs.segment_size}): one payload could "
            f"never fit a single log write"
        )
    if device_bytes is not None:
        layout = LfsLayout.for_device(lfs, device_bytes)
        if CLEAN_HIGH_WATER >= layout.num_segments:
            violations.append(
                f"CLEAN_HIGH_WATER ({CLEAN_HIGH_WATER}) is not "
                f"below the device's segment count ({layout.num_segments}): "
                f"the cleaner's target is unreachable"
            )
        # Writers are throttled once the clean reserve (clean segments
        # beyond the hard reserve) falls below reserve_watermark (see
        # AdmissionController); the file system's own floor is reserve
        # + 2 + dirty segments, not CLEAN_LOW_WATER.  A watermark as
        # large as the serviceable segments (beyond the hard reserve and
        # CLEAN_LOW_WATER: what prefill fills) throttles writers before
        # that space is used.
        watermark = service.reserve_watermark if service is not None else 0
        if layout.serviceable_segments <= watermark:
            violations.append(
                f"cleaner reserve {layout.reserve_segments} + CLEAN_LOW_WATER "
                f"{CLEAN_LOW_WATER} + reserve_watermark {watermark} leaves "
                f"no serviceable segments on a {layout.num_segments}-segment device"
            )
        if (
            service is not None
            and service.fill_fraction > 0
            and layout.num_segments < 8
        ):
            violations.append(
                f"fill_fraction {service.fill_fraction} needs room to "
                f"fragment, but the device has only {layout.num_segments} "
                f"segments (minimum 8)"
            )
    if violations:
        raise ConfigError(violations)
