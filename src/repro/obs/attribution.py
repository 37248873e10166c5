"""Latency attribution: from a trace tree to a per-component report.

The tracing pipeline (:mod:`repro.obs.context`) leaves one finished
``service.request`` root span per request, carrying ``lat.<component>``
attributes whose values sum to ``lat.total``.  This module aggregates
those roots into the report the paper-style analysis needs: per-kind
and overall p50/p99/mean per component, the share of total latency
each component explains, span-link counts (cleaner passes tied to the
writes that paid for them), and the ``wamp.*`` write-amplification
ledger — emitted as ``BENCH_trace.json`` by ``repro serve-sim --report``.

Everything here is deterministic: the service layer's nearest-rank
percentile (:func:`repro.service.stats.percentile`, so a report's p99
is the one ``serve-sim`` prints for the same run), sorted keys, and
inputs measured on the simulated clock, so the same seed produces a
byte-identical report.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.context import COMPONENTS
from repro.obs.tracer import Span
from repro.service.stats import percentile

SCHEMA_VERSION = 1

ROOT_KIND = "service.request"

_ROUND = 9  # digits; matches the service layer's latency reporting


def request_roots(spans: List[Span]) -> List[Span]:
    """Finished request root spans carrying attribution attrs."""
    return [
        span
        for span in spans
        if span.kind == ROOT_KIND and "lat.total" in span.attrs
    ]


def _component_summary(values: List[float], grand_total: float) -> Dict:
    total = sum(values)
    return {
        "p50": round(percentile(values, 0.50), _ROUND),
        "p99": round(percentile(values, 0.99), _ROUND),
        "mean": round(total / len(values), _ROUND) if values else 0.0,
        "total": round(total, _ROUND),
        "share": round(total / grand_total, 6) if grand_total else 0.0,
    }


def _aggregate(roots: List[Span]) -> Dict[str, Any]:
    totals = [span.attrs["lat.total"] for span in roots]
    grand_total = sum(totals)
    components = {
        name: _component_summary(
            [span.attrs[f"lat.{name}"] for span in roots], grand_total
        )
        for name in COMPONENTS
    }
    return {
        "count": len(roots),
        "components": components,
        "total": {
            "p50": round(percentile(totals, 0.50), _ROUND),
            "p99": round(percentile(totals, 0.99), _ROUND),
            "mean": (
                round(grand_total / len(totals), _ROUND) if totals else 0.0
            ),
            "total": round(grand_total, _ROUND),
        },
    }


def max_sum_error(roots: List[Span]) -> float:
    """Largest |sum(components) − total| across requests (float fuzz)."""
    worst = 0.0
    for span in roots:
        attributed = sum(
            span.attrs[f"lat.{name}"] for name in COMPONENTS
        )
        worst = max(worst, abs(attributed - span.attrs["lat.total"]))
    return worst


def link_counts(spans: List[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        for link in span.links:
            relation = link["relation"]
            counts[relation] = counts.get(relation, 0) + 1
    return counts


def build_trace_report(
    telemetry: Any,
    fs: Any = None,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the full ``BENCH_trace.json`` document.

    ``telemetry`` supplies the trace tree, ``fs`` (optional) the
    ``wamp.*`` ledger, ``config`` (optional) run parameters recorded
    for reproducibility.
    """
    tracer = telemetry.tracer
    roots = request_roots(tracer.spans)
    by_kind: Dict[str, List[Span]] = {}
    for span in roots:
        by_kind.setdefault(span.attrs.get("kind", "?"), []).append(span)
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "requests": len(roots),
        "max_sum_error": max_sum_error(roots),
        "attribution": {
            "overall": _aggregate(roots),
            "by_kind": {
                kind: _aggregate(spans)
                for kind, spans in sorted(by_kind.items())
            },
        },
        "links": link_counts(tracer.spans),
        "spans": {
            "kind_counts": dict(sorted(tracer.kind_counts.items())),
            "dropped": tracer.dropped_spans,
        },
    }
    if config is not None:
        report["config"] = dict(config)
    if fs is not None and hasattr(fs, "wamp_report"):
        report["wamp"] = fs.wamp_report()
    disk = getattr(fs, "disk", None)
    if disk is not None and hasattr(disk, "retry_stall_seconds"):
        # Transient-read retry backoff is part of the disk's busy
        # timeline (it is inside ``lat.disk`` via sync_stall_seconds);
        # surfacing it separately shows how much of the disk share was
        # fault recovery rather than transfer time.
        report["disk"] = {
            "read_retries": getattr(disk, "read_retries", 0),
            "retry_stall_seconds": round(
                disk.retry_stall_seconds, _ROUND
            ),
        }
    return report


def render_trace_report(report: Dict[str, Any]) -> str:
    """Human-readable summary (printed by ``repro serve-sim --report``)."""
    lines = [
        f"requests traced           {report['requests']}",
        f"max attribution error     {report['max_sum_error']:.3e}",
    ]
    overall = report["attribution"]["overall"]
    total = overall["total"]
    lines.append(
        f"latency total             p50={total['p50']:.6f}s "
        f"p99={total['p99']:.6f}s"
    )
    for name in COMPONENTS:
        comp = overall["components"][name]
        lines.append(
            f"  {name:<22}  p50={comp['p50']:.6f}s "
            f"p99={comp['p99']:.6f}s share={comp['share'] * 100:6.2f}%"
        )
    if "wamp" in report:
        wamp = report["wamp"]
        lines.append(
            f"write amplification       "
            f"{wamp['write_amplification']:.4f} "
            f"(user={wamp['user_bytes']} log={wamp['log_bytes']} "
            f"cleaner={wamp['cleaner_bytes']})"
        )
    if "disk" in report:
        disk = report["disk"]
        lines.append(
            f"disk retry stalls         "
            f"{disk['read_retries']} retries, "
            f"{disk['retry_stall_seconds']:.6f}s backoff"
        )
    links = report.get("links", {})
    if links:
        rendered = " ".join(
            f"{relation}={count}" for relation, count in sorted(links.items())
        )
        lines.append(f"span links                {rendered}")
    return "\n".join(lines)


__all__ = [
    "SCHEMA_VERSION",
    "ROOT_KIND",
    "request_roots",
    "max_sum_error",
    "link_counts",
    "build_trace_report",
    "render_trace_report",
]
