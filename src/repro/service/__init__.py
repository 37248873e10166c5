"""Multi-client service layer over the LFS.

Simulated-time front-end that interleaves N client request streams over
one :class:`~repro.lfs.filesystem.LogStructuredFS`: a request scheduler
driving the shared clock, a group committer batching concurrent fsyncs
into single flushes, and an admission controller that throttles writers
when the cleaner's clean-segment reserve runs low.
"""

from repro.service.admission import AdmissionController, Decision
from repro.service.committer import GroupCommitter
from repro.service.config import ServiceConfig, validate_rig
from repro.service.scheduler import (
    ClientStream,
    Request,
    RequestScheduler,
    prefill,
    run_service,
    serviceable_bytes,
    simulate_service,
)
from repro.service.stats import REQUEST_KINDS, ServiceStats, percentile

__all__ = [
    "AdmissionController",
    "ClientStream",
    "Decision",
    "GroupCommitter",
    "percentile",
    "prefill",
    "Request",
    "REQUEST_KINDS",
    "RequestScheduler",
    "run_service",
    "serviceable_bytes",
    "ServiceConfig",
    "ServiceStats",
    "simulate_service",
    "validate_rig",
]
