"""Exporters and renderers for telemetry data.

Three consumers, three formats:

* :func:`export_jsonl` — one JSON object per line (``metric`` records,
  then ``span`` records, then one trailing ``summary``), the stream the
  ``repro fig --telemetry out.jsonl`` flag writes so any experiment can
  be post-processed outside the simulator;
* :func:`iter_records` — the same records as plain Python structures
  for in-process analysis and tests;
* :func:`render_report` — the human-readable report ``repro stats``
  prints: a metrics table and a per-kind span summary.

:func:`format_fields` is the shared one-line renderer ad-hoc summaries
(e.g. :meth:`repro.disk.stats.DiskStats.summary`) route through.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterator, List, Sequence, Tuple, Union

from repro.obs.telemetry import Telemetry

EXPORT_SCHEMA = 1


def iter_records(telemetry: Telemetry) -> Iterator[Dict[str, Any]]:
    """Every export record: metrics, spans, then a trailing summary."""
    registry = telemetry.registry
    tracer = telemetry.tracer
    for sample in registry.samples():
        yield {"type": "metric", **sample}
    for span in tracer.spans:
        yield {"type": "span", **span.to_dict()}
    yield {
        "type": "summary",
        "schema": EXPORT_SCHEMA,
        "metric_names": registry.metric_names(),
        "span_kinds": tracer.span_kinds(),
        "span_kind_counts": dict(tracer.kind_counts),
        "span_kind_seconds": dict(tracer.kind_seconds),
        "dropped_spans": tracer.dropped_spans,
        "dropped_label_sets": registry.dropped_label_sets,
    }


def export_jsonl(telemetry: Telemetry, out: Union[str, IO[str]]) -> int:
    """Write the JSONL stream to a path or text file; returns line count."""
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as handle:
            return export_jsonl(telemetry, handle)
    lines = 0
    for record in iter_records(telemetry):
        json.dump(record, out, sort_keys=True)
        out.write("\n")
        lines += 1
    return lines


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a stream written by :func:`export_jsonl`."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def merge_jsonl_files(paths: Sequence[str]) -> Telemetry:
    """Fold one or more exported JSONL streams into a fresh Telemetry.

    This is how ``repro stats a.jsonl b.jsonl ...`` renders a cluster
    run: each shard rig exports its own stream, and the merged registry
    state is rebuilt here via :func:`repro.harness.parallel.
    merge_metric_samples` — the same fold the parallel runner uses, so
    the rendered report matches what a single-process run of the same
    rigs would have recorded.  Span *event records* are per-rig detail
    and are not merged; their per-kind count/seconds totals are, from
    the trailing summary record.
    """
    from repro.harness.parallel import merge_metric_samples

    merged = Telemetry()
    for path in paths:
        records = read_jsonl(path)
        metrics = [
            {key: value for key, value in record.items() if key != "type"}
            for record in records
            if record.get("type") == "metric"
        ]
        summary = next(
            (r for r in records if r.get("type") == "summary"), {}
        )
        merge_metric_samples(
            merged,
            {
                "metrics": metrics,
                "kind_counts": summary.get("span_kind_counts", {}),
                "kind_seconds": summary.get("span_kind_seconds", {}),
                "dropped_spans": summary.get("dropped_spans", 0),
                "dropped_label_sets": summary.get("dropped_label_sets", 0),
            },
        )
    return merged


def format_fields(fields: Sequence[Tuple[str, Any]]) -> str:
    """Render ``(label, value)`` pairs as one comma-separated line."""
    return ", ".join(
        f"{label} {value}" if label else str(value)
        for label, value in fields
    )


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value):,}"


def render_report(telemetry: Telemetry, title: str = "telemetry") -> str:
    """Human-readable report: metric table + span-kind summary."""
    registry = telemetry.registry
    tracer = telemetry.tracer
    lines = [f"== {title} =="]
    if not telemetry.enabled:
        lines.append("telemetry disabled (nothing recorded)")
        return "\n".join(lines)

    metric_rows: List[Tuple[str, str, str]] = []
    for sample in registry.samples():
        labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
        name = sample["name"] + (f"{{{labels}}}" if labels else "")
        if sample["kind"] == "histogram":
            mean = sample["sum"] / sample["count"] if sample["count"] else 0.0
            value = f"count={sample['count']} mean={mean:.6g}"
        else:
            value = _format_value(sample["value"])
        metric_rows.append((name, sample["kind"], value))
    if metric_rows:
        width = max(len(row[0]) for row in metric_rows)
        lines.append(f"-- metrics ({len(metric_rows)} series) --")
        for name, kind, value in metric_rows:
            lines.append(f"  {name:<{width}}  {kind:<9} {value}")
        if registry.dropped_label_sets:
            lines.append(
                f"  ({registry.dropped_label_sets} label sets collapsed "
                f"into overflow series)"
            )
    else:
        lines.append("-- no metrics recorded --")

    if tracer.kind_counts:
        lines.append(f"-- spans ({sum(tracer.kind_counts.values())} total) --")
        width = max(len(kind) for kind in tracer.kind_counts)
        for kind in tracer.span_kinds():
            count = tracer.kind_counts[kind]
            total = tracer.kind_seconds.get(kind, 0.0)
            mean = total / count if count else 0.0
            lines.append(
                f"  {kind:<{width}}  n={count:<8} "
                f"total={total:.6f}s mean={mean:.6f}s"
            )
        if tracer.dropped_spans:
            lines.append(f"  ({tracer.dropped_spans} span events dropped)")
    else:
        lines.append("-- no spans recorded --")
    return "\n".join(lines)
