"""The file cache.

Both file systems buffer blocks here.  For LFS the cache *is* the write
mechanism: §4.1 — "LFS uses the file cache as a write buffer that
accumulates changes to the file system and performs speed matching
between the CPU and disk subsystem."
"""

from repro.cache.block_cache import BlockCache, CacheBlock, CacheStats
from repro.cache.readahead import ReadaheadPolicy, ReadaheadStats
from repro.cache.writeback import WritebackMonitor

__all__ = [
    "BlockCache",
    "CacheBlock",
    "CacheStats",
    "ReadaheadPolicy",
    "ReadaheadStats",
    "WritebackMonitor",
]
