"""Build, persist and compare perf reports.

``benchmarks/perf_harness.py`` times the *simulator itself* (Python
wall-clock, not simulated seconds) on the paper's workloads and records
the results as JSON — ``BENCH_hotpaths.json`` at the repository root —
so the performance trajectory of the hot paths is tracked from PR to PR
and regressions are visible in review.

The hotpaths schema is deliberately small and stable:

* ``workloads.<name>.after`` — the current implementation's numbers
  with telemetry disabled (the "before" of a change is the same report
  generated at its parent commit);
* ``workloads.<name>.telemetry_on`` — the same workload with a live
  :class:`repro.obs.Telemetry` recording, and
  ``workloads.<name>.telemetry_overhead`` the on/off wall-clock ratio
  minus one (0.05 = telemetry costs 5%);
* ``workloads.<name>.tracing_on`` / ``tracing_overhead`` — likewise
  with full request and per-I/O tracing;
* ``probes`` — operation-count evidence that the O(1) invariants hold
  (see :mod:`repro.lfs.segment_usage` and :mod:`repro.disk.device`);
* ``checks`` — pass/fail booleans the harness asserted;
* ``baseline`` — the committed report the telemetry-disabled leg was
  held to, with either the regression list or a skip note.

Comparison is family-agnostic.  Each report family has a small
*flattener* that turns a loaded report into ``(comparability key,
{label: {metric: (value, "lower" | "higher")}})`` — the direction says
which way is better — and :func:`diff_points` / :func:`render_diff`
work on that shape alone.  ``BENCH_hotpaths.json`` flattens to one
``wall_seconds`` (lower) per workload, keyed by scale;
``BENCH_service.json`` (the service sweep, optionally with a
``cluster`` section) flattens to ``throughput_per_second`` (higher) and
``latency_p99_seconds`` (lower) per sweep point, keyed by seed.  A new
report family costs one flattener.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Dict, Optional, Tuple

SCHEMA_VERSION = 1


def workload_entry(
    wall_seconds: float,
    ops: int,
    simulated_seconds: float,
    cpu_seconds: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One timed run of one workload.

    ``cpu_seconds`` is the ``time.process_time()`` delta over the same
    span as ``wall_seconds``: process CPU time, immune to the machine's
    other load.  A wall/cpu divergence flags a noisy-neighbour run whose
    wall-clock numbers should not be trusted.  (The measurement happens
    in the harness — this module never touches the simulated clock, so
    the SVC001 wall-clock lint does not apply here.)
    """
    entry: Dict[str, Any] = {
        "wall_seconds": round(wall_seconds, 6),
        "ops": ops,
        "ops_per_second": round(ops / wall_seconds, 2) if wall_seconds > 0 else None,
        "simulated_seconds": round(simulated_seconds, 6),
    }
    if cpu_seconds is not None:
        entry["cpu_seconds"] = round(cpu_seconds, 6)
    if extra:
        entry["extra"] = extra
    return entry


def build_report(
    scale: str,
    workloads: Dict[str, Dict[str, Any]],
    probes: Dict[str, Any],
    checks: Dict[str, bool],
) -> Dict[str, Any]:
    """Assemble the full report dict (see module docstring for schema)."""
    return {
        "schema": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        "scale": scale,
        "workloads": workloads,
        "probes": probes,
        "checks": checks,
    }


def write_report(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def is_service_report(report: Dict[str, Any]) -> bool:
    """True for ``BENCH_service.json``-shaped reports (the service
    scaling sweep, optionally carrying a ``cluster`` section)."""
    return report.get("benchmark") == "service_scaling"


def load_report(path: str) -> Dict[str, Any]:
    """Load either report family ``repro bench-diff`` understands.

    ``BENCH_hotpaths.json`` carries a ``schema`` version;
    ``BENCH_service.json`` is recognized by its ``benchmark`` tag (its
    numbers are simulated time — a pure function of the seed — so it
    needs no schema negotiation).
    """
    with open(path) as handle:
        report = json.load(handle)
    if not is_service_report(report) and report.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench report schema {report.get('schema')!r} "
            f"in {path!r}"
        )
    return report


Points = Dict[str, Dict[str, Tuple[float, str]]]
Flattened = Tuple[Tuple[str, Any], Points]


def _hotpaths_points(report: Dict[str, Any]) -> Flattened:
    """One telemetry-disabled wall-clock per workload; wall-clock only
    transfers within one scale."""
    return ("scale", report.get("scale")), {
        name: {"wall_seconds": (entry["after"]["wall_seconds"], "lower")}
        for name, entry in report.get("workloads", {}).items()
        if entry.get("after")
    }


def _service_points(report: Dict[str, Any]) -> Flattened:
    """The single-volume curve plus any cluster sweep points; the
    numbers are simulated, so only equal seeds compare."""
    rows = {f"service c{row['clients']}": row for row in report.get("points", [])}
    for row in report.get("cluster", {}).get("points", []):
        rows[f"cluster {row['shards']}x{row['clients']}"] = row
    return ("seed", report.get("seed")), {
        label: {
            "throughput_per_second": (
                row.get("throughput_per_second", 0.0),
                "higher",
            ),
            "latency_p99_seconds": (
                row.get("latency_p99_seconds", 0.0),
                "lower",
            ),
        }
        for label, row in rows.items()
    }


def flatten(report: Dict[str, Any]) -> Flattened:
    """A loaded report as ``(comparability key, points)``."""
    if is_service_report(report):
        return _service_points(report)
    return _hotpaths_points(report)


def diff_points(
    old: Flattened, new: Flattened, max_regression: float = 0.03
) -> Dict[str, Any]:
    """Metric-by-metric comparison of two flattened reports.

    The engine behind ``repro bench-diff A.json B.json`` and the perf
    harness's committed-baseline gate.  Every metric of every point
    present on both sides is compared in its own direction: it
    regresses when it moved the wrong way by more than
    ``max_regression`` (a fraction: 0.03 = 3%).  Points only one side
    has are listed, not judged.  A comparability-key mismatch (scale
    for wall-clock reports, seed for simulated ones) makes the reports
    incomparable — CI should treat that as a wiring error, not a pass.
    """
    (key_name, old_key), old_points = old
    (new_key_name, new_key), new_points = new
    result: Dict[str, Any] = {
        "max_regression": max_regression,
        "comparable": (key_name, old_key) == (new_key_name, new_key),
        "key": key_name,
        "old_key": old_key,
        "new_key": new_key,
        "points": {},
        "regressions": [],
        "only_old": sorted(set(old_points) - set(new_points)),
        "only_new": sorted(set(new_points) - set(old_points)),
    }
    if not result["comparable"]:
        result["regressions"].append(
            f"{key_name} mismatch: {old_key!r} vs {new_key!r} "
            f"(reports are not comparable)"
        )
        return result
    for label in sorted(set(old_points) & set(new_points)):
        metrics = result["points"][label] = {}
        for metric, (old_value, direction) in old_points[label].items():
            if metric not in new_points[label]:
                continue
            new_value = new_points[label][metric][0]
            if direction == "lower":
                worse = new_value > old_value * (1.0 + max_regression)
            else:
                worse = new_value < old_value * (1.0 - max_regression)
            ratio = (
                round(new_value / old_value, 4)
                if old_value > 0
                else float("inf")
            )
            metrics[metric] = {
                "old": old_value,
                "new": new_value,
                "ratio": ratio,
                "regressed": old_value > 0 and worse,
            }
            if metrics[metric]["regressed"]:
                sign = "+" if direction == "lower" else "-"
                result["regressions"].append(
                    f"{label}: {metric} {old_value:.6g} -> {new_value:.6g} "
                    f"({ratio:.2f}x, limit {sign}{max_regression:.0%})"
                )
    return result


def render_diff(diff: Dict[str, Any]) -> str:
    """Terminal rendering of a :func:`diff_points` result."""
    lines = [
        f"bench diff — max regression {diff['max_regression']:.1%} "
        f"({diff['key']}: {diff['old_key']} vs {diff['new_key']})",
        f"{'point':<28} {'metric':<22} {'old':>11} {'new':>11} {'ratio':>7}",
    ]
    for label, metrics in diff["points"].items():
        for metric, entry in metrics.items():
            flag = "  REGRESSED" if entry["regressed"] else ""
            lines.append(
                f"{label:<28} {metric:<22} {entry['old']:>11.6g} "
                f"{entry['new']:>11.6g} {entry['ratio']:>6.2f}x{flag}"
            )
    for label in diff["only_old"]:
        lines.append(f"{label:<28} (only in old report)")
    for label in diff["only_new"]:
        lines.append(f"{label:<28} (only in new report)")
    if diff["regressions"]:
        lines.append(f"{len(diff['regressions'])} regression(s):")
        lines.extend(f"  {item}" for item in diff["regressions"])
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def summarize(report: Dict[str, Any]) -> str:
    """Render the report as a terminal table."""
    lines = [
        f"perf harness — scale={report['scale']}  "
        f"python={report['python']}  {report['generated_at']}",
        f"{'workload':<28} {'after s':>9} {'ops/s':>10}",
    ]
    for name, entry in report["workloads"].items():
        after = entry.get("after") or {}
        lines.append(
            f"{name:<28} "
            f"{after.get('wall_seconds', float('nan')):>9.3f} "
            f"{(after.get('ops_per_second') or 0):>10.1f}"
        )
        telemetry_on = entry.get("telemetry_on")
        if telemetry_on:
            lines.append(
                f"  telemetry on: {telemetry_on['wall_seconds']:.3f}s "
                f"({entry.get('telemetry_overhead', 0.0):+.1%})"
            )
        tracing_on = entry.get("tracing_on")
        if tracing_on:
            lines.append(
                f"  tracing on:   {tracing_on['wall_seconds']:.3f}s "
                f"({entry.get('tracing_overhead', 0.0):+.1%})"
            )
    for name, ok in report["checks"].items():
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'}")
    baseline = report.get("baseline")
    if baseline:
        if "skipped" in baseline:
            lines.append(f"  baseline: skipped ({baseline['skipped']})")
        else:
            count = len(baseline.get("regressions", []))
            lines.append(
                f"  baseline: {count} regression(s) vs {baseline['path']} "
                f"(tolerance {baseline['tolerance']:.0%})"
            )
    return "\n".join(lines)
