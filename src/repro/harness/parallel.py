"""Deterministic fan-out of independent seeded rigs across processes.

Every heavyweight rig in this repository — a ``repro crashtest`` trial,
a :mod:`repro.service.bench` sweep point, a cluster shard group — is an
*independent, seeded* simulation: it builds its own clock, device and
file system, and its result is a pure function of its arguments.  That
makes them embarrassingly parallel, and :func:`run_tasks` is the one
place that parallelism lives.

The contract is strict determinism: ``run_tasks`` returns results in
**task order**, regardless of worker count or completion order, and
``jobs=1`` runs the plain in-process loop (no pool, no pickling — the
seeded default).  Callers that aggregate must consume the returned list
in order; then the merged report is byte-identical for any ``jobs``.

Workers fork on platforms that support it (the rigs' modules are
already imported, so fork is both faster and keeps ``__main__``-defined
workers picklable); elsewhere the spawn context is used and workers
must be module-level functions.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.obs import Telemetry

__all__ = [
    "available_jobs",
    "run_tasks",
    "run_trials",
    "merge_metric_samples",
    "export_telemetry_totals",
    "GAUGE_MERGE_MAX",
]

GAUGE_MERGE_MAX = frozenset({"fs.degraded"})
"""Gauges that merge by ``max`` instead of summation.

Most gauges are extensive end-of-run quantities (queue depth, dirty
bytes) for which summing worker contributions matches what a single
process would have accumulated.  A *sticky state flag* like
``fs.degraded`` is different: it is 0 or 1 per rig, and the merged
answer to "did any rig degrade?" is the maximum, not the count —
summing would turn the flag into a tally and make ``--jobs N`` output
diverge from serial runs that overwrite the gauge in place."""


def available_jobs(requested: int) -> int:
    """Advisory clamp of a ``--jobs`` request to the machine's CPU count.

    :func:`run_tasks` deliberately does *not* apply this clamp — an
    explicit ``--jobs 4`` forks four workers even on a smaller machine
    (oversubscription only timeslices; results are identical either
    way, and the pool path stays exercisable everywhere).  Use this
    helper when picking a default job count, not when honouring an
    explicit request.
    """
    if requested < 1:
        raise ValueError(f"jobs must be >= 1: {requested}")
    return min(requested, os.cpu_count() or 1)


def _context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork (e.g. Windows)
        return multiprocessing.get_context("spawn")


def run_tasks(
    worker: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: int = 1,
) -> List[Any]:
    """Run ``worker(*task)`` for every task; results in task order.

    ``jobs`` caps the worker-process count (clamped to the task count,
    but honoured as requested beyond the CPU count — oversubscription
    merely timeslices).  With ``jobs <= 1`` or fewer than two tasks
    this is a plain loop in the calling process — semantics, and
    therefore output, are identical either way because the pool variant
    also yields results strictly by task index (``starmap`` preserves
    input order no matter which worker finishes first).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    tasks = list(tasks)
    jobs = min(jobs, len(tasks))
    if jobs <= 1 or len(tasks) < 2:
        return [worker(*task) for task in tasks]
    with _context().Pool(processes=jobs) as pool:
        return pool.starmap(worker, tasks, chunksize=1)


def run_trials(
    trial: Callable[..., Any],
    tasks: Sequence[Dict[str, Any]],
    telemetry=None,
    jobs: int = 1,
) -> List[Any]:
    """Run ``trial(**task, telemetry=...)`` per task; results in task order.

    Every trial — even under ``jobs=1`` — records into its own fresh
    :class:`Telemetry` (``None`` when the caller passes none) and its
    totals are folded into the caller's afterwards, so ``telemetry``
    always sees the same per-trial merges in task order.  Running serial
    trials inline against the shared object instead would add span
    seconds in a different float order, overwrite gauges instead of
    summing them and keep span events, breaking ``--jobs`` byte-identity.
    """
    outcomes = run_tasks(
        _isolated_trial,
        [(trial, task, telemetry is not None) for task in tasks],
        jobs=jobs,
    )
    results = []
    for result, totals in outcomes:
        results.append(result)
        if totals is not None:
            merge_metric_samples(telemetry, totals)
    return results


def _isolated_trial(
    trial: Callable[..., Any], task: Dict[str, Any], with_telemetry: bool
):
    telemetry = Telemetry() if with_telemetry else None
    result = trial(**task, telemetry=telemetry)
    return result, (
        export_telemetry_totals(telemetry) if with_telemetry else None
    )


def export_telemetry_totals(telemetry) -> Dict[str, Any]:
    """A worker's mergeable observability totals, ready to ship home.

    Everything :func:`merge_metric_samples` knows how to fold: the
    registry's metric samples and label-overflow counter plus the
    tracer's per-kind span counts/seconds and span-drop counter.  Span
    *event records* stay in the worker — they are per-process detail
    and can be arbitrarily large — but the totals merge, so a
    ``--jobs N`` run reports the same observability summary as
    ``--jobs 1``.
    """
    tracer = telemetry.tracer
    return {
        "metrics": telemetry.registry.to_dict()["metrics"],
        "dropped_label_sets": telemetry.registry.dropped_label_sets,
        "kind_counts": dict(tracer.kind_counts),
        "kind_seconds": dict(tracer.kind_seconds),
        "dropped_spans": tracer.dropped_spans,
    }


def merge_metric_samples(telemetry, samples) -> int:
    """Fold one worker's exported observability totals into ``telemetry``.

    ``samples`` is either the plain ``metrics`` list of
    :meth:`repro.obs.registry.MetricsRegistry.to_dict` (the original
    contract) or the dict built by :func:`export_telemetry_totals`,
    which additionally carries the tracer's span-kind counts/seconds
    and the drop counters.  Counters and gauges merge by summation,
    histograms bucket-by-bucket — all order-independent for the integer
    increments the simulators emit, so the merged state is the same for
    any worker count when callers merge in task order.  Returns the
    number of metric series merged; span *event records* are
    per-process and are not merged, but their per-kind totals are.
    """
    if isinstance(samples, dict):
        merged = _merge_sample_list(telemetry, samples.get("metrics", []))
        tracer = telemetry.tracer
        for kind, count in samples.get("kind_counts", {}).items():
            tracer.kind_counts[kind] = (
                tracer.kind_counts.get(kind, 0) + count
            )
        for kind, seconds in samples.get("kind_seconds", {}).items():
            tracer.kind_seconds[kind] = (
                tracer.kind_seconds.get(kind, 0.0) + seconds
            )
        tracer.dropped_spans += samples.get("dropped_spans", 0)
        telemetry.registry.dropped_label_sets += samples.get(
            "dropped_label_sets", 0
        )
        return merged
    return _merge_sample_list(telemetry, samples)


def _merge_sample_list(
    telemetry, samples: Iterable[Dict[str, Any]]
) -> int:
    merged = 0
    for record in samples:
        name = record["name"]
        labels = record.get("labels", {})
        kind = record.get("kind")
        if kind == "counter":
            telemetry.counter(name, **labels).inc(record["value"])
        elif kind == "gauge":
            gauge = telemetry.gauge(name, **labels)
            if name in GAUGE_MERGE_MAX:
                gauge.set(max(gauge.value, record["value"]))
            else:
                gauge.add(record["value"])
        elif kind == "histogram":
            bounds = [
                bound
                for bound, _count in record["buckets"]
                if bound != "+inf"
            ]
            histogram = telemetry.histogram(name, buckets=bounds, **labels)
            for slot, (_bound, count) in enumerate(record["buckets"]):
                histogram.counts[slot] += count
            histogram.total += record["sum"]
            histogram.count += record["count"]
        else:
            continue
        merged += 1
    return merged
