"""Registered metric names and span kinds — the observability contract.

Every metric series and span kind emitted by instrumented code is
declared here, in one table, so that downstream consumers (exporters,
the attribution analyzer, dashboards, the bench reports) can rely on a
closed vocabulary.  The OBS002 lint rule (:mod:`repro.tools.lint`)
enforces the contract: a string literal passed to ``.counter`` /
``.gauge`` / ``.histogram`` / ``.span`` inside an instrumented module
must be a member of :data:`METRIC_NAMES` or :data:`SPAN_KINDS`.  Adding
a new series is a two-line change — emit it and register it — and the
registration is what keeps ad-hoc, typo-prone name literals out of the
hot paths.

Naming scheme: ``<component>.<measure>`` with dot-separated lowercase
segments.  The ``wamp.*`` family is the write-amplification ledger the
paper's write-cost analysis is built on: user bytes in, log bytes out,
and the cleaner's copy traffic broken out separately.
"""

from __future__ import annotations

METRIC_NAMES = frozenset(
    {
        # -- allocation / buffer reuse ---------------------------------
        "alloc.segment_pool_reuse",
        # -- block cache ------------------------------------------------
        "cache.dirty_bytes",
        "cache.evictions",
        "cache.hits",
        "cache.insertions",
        "cache.misses",
        "cache.readahead_hits",
        "cache.readahead_prefetched",
        "cache.writeback_triggers",
        # -- checkpoints --------------------------------------------------
        "checkpoint.region_rejects",
        "checkpoint.writes",
        # -- segment cleaner ----------------------------------------------
        "cleaner.bytes_read",
        "cleaner.clean_reserve",
        "cleaner.dead_blocks_dropped",
        "cleaner.live_blocks_copied",
        "cleaner.live_bytes_copied",
        "cleaner.passes",
        "cleaner.segments_cleaned",
        "cleaner.segments_quarantined",
        "cleaner.victims",
        # -- simulated disk -----------------------------------------------
        "disk.busy_seconds",
        "disk.bytes_read",
        "disk.bytes_written",
        "disk.read_retries",
        "disk.reads",
        "disk.request_bytes",
        "disk.requests",
        "disk.sync_requests",
        "disk.vectored_reads",
        "disk.writes",
        # -- fault injection ------------------------------------------------
        "disk.fault.bad_sectors_grown",
        "disk.fault.bit_flips",
        "disk.fault.media_errors",
        "disk.fault.remaps",
        "disk.fault.torn_writes",
        "disk.fault.transient_errors",
        # -- file system (generic VFS layer) -------------------------------
        "fs.bytes_read",
        "fs.bytes_written",
        "fs.degraded",
        # -- cluster layer (sharded scale-out front-end) ---------------------
        "cluster.migrations",
        "cluster.migrated_bytes",
        "cluster.migrated_files",
        "cluster.redirected_requests",
        "cluster.routing_flips",
        "cluster.shards",
        # -- crash campaigns (crashtest, chaos) ------------------------------
        "campaign.contract_checks",
        "campaign.contract_violations",
        "campaign.crashes_injected",
        "campaign.resumed_clients",
        "campaign.trials",
        # -- crash recovery -------------------------------------------------
        "recovery.blocks_recovered",
        "recovery.corrupt_entries_skipped",
        "recovery.media_errors",
        "recovery.partials_applied",
        # -- multi-client service layer -------------------------------------
        "service.admitted",
        "service.commit_batch_size",
        "service.degraded_failures",
        "service.rejected_degraded",
        "service.commits",
        "service.completed",
        "service.forced_admissions",
        "service.fsyncs_committed",
        "service.latency_seconds",
        "service.no_space_failures",
        "service.queue_depth",
        "service.rejected",
        "service.requests",
        "service.throttle_events",
        "service.throttle_seconds",
        # -- write-amplification ledger --------------------------------------
        "wamp.cleaner_bytes",
        "wamp.log_bytes",
        "wamp.user_bytes",
    }
)
"""Every registered metric series name (counters, gauges, histograms)."""

SPAN_KINDS = frozenset(
    {
        "cache.flush",
        "checkpoint.write",
        "cleaner.clean",
        "cleaner.pass",
        "cluster.cutover",
        "cluster.migrate",
        "cluster.migration_redirect",
        "cleaner.relocate_segment",
        "disk.read",
        "disk.write",
        "fs.degrade",
        "fs.write",
        "recovery.roll_forward",
        "service.admission_retry",
        "service.commit_wait",
        "service.group_commit",
        "service.request",
        "service.run",
        "service.throttle",
    }
)
"""Every registered span kind."""

# Span-link relations (span.links entries carry one of these).
LINK_PAYS_FOR = "pays_for"
"""Cleaner-pass span link back to the throttled request that paid for it."""

LINK_COMMITS = "commits"
"""Group-commit span link to each request whose fsync rode the flush."""

LINK_RELATIONS = frozenset({LINK_PAYS_FOR, LINK_COMMITS})

GAUGE_MERGE_MAX = frozenset({"fs.degraded"})
"""Gauges that merge across parallel workers by ``max``, not by sum.

Most gauges are level samples whose per-worker values add (queue depth,
clean reserve).  Set-style flags do not: ``fs.degraded`` is 0 or 1 per
rig, and summing two degraded workers would print ``2`` — a value no
sequential run can produce.  :func:`repro.harness.parallel.
merge_metric_samples` consults this table so ``--jobs N`` output stays
byte-identical to ``--jobs 1``."""

__all__ = [
    "METRIC_NAMES",
    "SPAN_KINDS",
    "LINK_RELATIONS",
    "LINK_PAYS_FOR",
    "LINK_COMMITS",
    "GAUGE_MERGE_MAX",
]
