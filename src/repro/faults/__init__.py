"""Deterministic storage fault injection (torn writes, bit rot, bad
sectors, transient I/O errors) and the two crash campaigns behind
``repro crashtest`` and ``repro chaos``.

Everything here is policy layered *around* the stack under test:
:class:`FaultInjector` decides what breaks, :class:`FaultyDevice` breaks
it at the :class:`~repro.disk.device.SectorDevice` boundary, and the
campaigns (one runner, trial result and report,
:mod:`repro.faults.campaign`) check that the LFS above recovers:
crashtest that it reports all damage with typed errors, chaos
(:mod:`repro.faults.chaos`) that every acked fsync survives a crash of
the loaded service rig.
"""

from repro.faults.campaign import (
    CampaignReport,
    TrialResult,
    run_campaign,
    run_trial,
    validate_trial,
)
from repro.faults.chaos import run_chaos_trial, validate_chaos_rig
from repro.faults.device import FaultyDevice
from repro.faults.injector import FaultConfig, FaultInjector
from repro.faults.model import ModelFS

__all__ = [
    "CampaignReport",
    "FaultConfig",
    "FaultInjector",
    "FaultyDevice",
    "ModelFS",
    "TrialResult",
    "run_campaign",
    "run_chaos_trial",
    "run_trial",
    "validate_chaos_rig",
    "validate_trial",
]
