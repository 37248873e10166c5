"""The overload wedge: many clients on a nearly full volume.

Writers are throttled while the clean-segment reserve is low, and a
throttled writer pays for a cleaning pass (``pay_throttle`` ->
``SegmentCleaner.clean``).  On this volume the pass's own write-back
(``flush_log(cleaner=True)``) takes the last clean segment, and
``NoSpaceError`` escapes ``RequestScheduler.run``; ``unmount`` then
fails the same way.  The same happens to ``serve-sim --clients 64
--fill 0.85 --seed 0`` on the default 64 MiB volume after about a minute.
This is the smallest reproduction found.  Admission that sees when
cleaning cannot yield, and sheds the write instead, is the fix this
waits for; until then the first test fails as marked.
"""

from __future__ import annotations

import pytest

from repro.errors import NoSpaceError
from repro.lfs.verify import verify_lfs
from repro.rig import new_rig
from repro.service import ServiceConfig
from repro.service.config import SERVICE_LFS_CONFIG
from repro.service.scheduler import run_service
from repro.units import MIB

WEDGE = ServiceConfig(
    num_clients=64, requests_per_client=3, fill_fraction=0.85, seed=0
)
VOLUME = 5 * MIB


def _rig():
    return new_rig(
        "lfs", total_bytes=VOLUME, lfs_config=SERVICE_LFS_CONFIG, service=WEDGE
    ).fs


@pytest.mark.xfail(
    strict=True,
    raises=NoSpaceError,
    reason="a throttled writer's cleaning pass takes the last clean segment",
)
def test_overloaded_volume_serves_every_request():
    fs = _rig()
    stats, _scheduler = run_service(fs, WEDGE)
    fs.unmount()
    assert stats.dropped == 0
    assert sum(stats.submitted.values()) == 64 * 3


def test_the_last_checkpoint_verifies_after_the_wedge():
    fs = _rig()
    for step in (lambda: run_service(fs, WEDGE), fs.unmount):
        try:
            step()
        except NoSpaceError:
            pass
    report = verify_lfs(fs.disk.device)
    assert report.consistent, report.errors
