"""Memory gate: filling the service rig holds no copies of zeros.

The log runs far ahead of the clock while ``prefill`` writes, so
hundreds of asynchronous segment writes are pending at once.  Each
keeps an undo record until it is durable; over sectors that were
never written the record must cost its length, not a copy of the
zeros it replaced.  Copying them peaks at about 46 MiB of traced
memory on this rig; keeping lengths peaks at about 4 MiB.
"""

import tracemalloc

from repro.rig import new_rig
from repro.service import ServiceConfig, prefill
from repro.service.config import SERVICE_LFS_CONFIG
from repro.units import MIB

PEAK_LIMIT = 8 * MIB


def test_prefill_to_085_traces_under_8_mib():
    config = ServiceConfig(num_clients=16, fill_fraction=0.85, seed=0)
    fs = new_rig(
        "lfs", total_bytes=64 * MIB, lfs_config=SERVICE_LFS_CONFIG,
        service=config,
    ).fs
    tracemalloc.start()
    try:
        prefill(fs, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fs.disk.device.undo_records_created > 200
    assert peak <= PEAK_LIMIT, f"traced peak {peak / MIB:.1f} MiB"
