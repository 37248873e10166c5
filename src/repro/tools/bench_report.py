"""Load and compare service-sweep reports (``repro bench-diff``).

``BENCH_service.json`` — the single-volume service sweep, optionally
with a ``cluster`` section — holds *simulated* numbers, a pure function
of the seed.  :func:`service_points` flattens a loaded report into
``(seed, {label: {metric: (value, "lower" | "higher")}})`` — the
direction says which way is better — and :func:`diff_points` /
:func:`render_diff` work on that shape alone.  How fast the simulator
itself runs is measured by ``benchmarks/e2e`` (``BENCHMARK.json``),
which has its own comparer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from repro.errors import ReproError

Points = Dict[str, Dict[str, Tuple[float, str]]]
Flattened = Tuple[Any, Points]


def load_report(path: str) -> Dict[str, Any]:
    """Load a ``BENCH_service.json``-shaped report, recognized by its
    ``benchmark`` tag."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("benchmark") != "service_scaling":
        raise ReproError(
            f"{path!r} is not a service_scaling report "
            f"(benchmark={report.get('benchmark')!r})"
        )
    return report


def service_points(report: Dict[str, Any]) -> Flattened:
    """The single-volume curve plus any cluster sweep points, keyed by
    the seed: the numbers are simulated, so only equal seeds compare."""
    rows = {f"service c{row['clients']}": row for row in report.get("points", [])}
    for row in report.get("cluster", {}).get("points", []):
        rows[f"cluster {row['shards']}x{row['clients']}"] = row
    return report.get("seed"), {
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


def diff_points(
    old: Flattened, new: Flattened, max_regression: float = 0.03
) -> Dict[str, Any]:
    """Metric-by-metric comparison of two flattened reports.

    Every metric of every point present on both sides is compared in
    its own direction: it regresses when it moved the wrong way by more
    than ``max_regression`` (a fraction: 0.03 = 3%).  Points only one
    side has are listed, not judged.  A seed mismatch makes the reports
    incomparable — CI should treat that as a wiring error, not a pass.
    """
    old_seed, old_points = old
    new_seed, new_points = new
    result: Dict[str, Any] = {
        "max_regression": max_regression,
        "comparable": old_seed == new_seed,
        "old_seed": old_seed,
        "new_seed": new_seed,
        "points": {},
        "regressions": [],
        "only_old": sorted(set(old_points) - set(new_points)),
        "only_new": sorted(set(new_points) - set(old_points)),
    }
    if not result["comparable"]:
        result["regressions"].append(
            f"seed mismatch: {old_seed!r} vs {new_seed!r} "
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
        f"(seed: {diff['old_seed']} vs {diff['new_seed']})",
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
