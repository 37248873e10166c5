"""Tests for bench report diffing (`repro bench-diff`) and the trace
attribution command (`repro trace`)."""

from __future__ import annotations

import json

import pytest

from repro.tools.bench_report import diff_points, render_diff, service_points

from .test_cli import run_cli


def service_report(key: int, points: dict) -> dict:
    """A ``BENCH_service.json``-shaped report: ``key`` is the seed,
    each point ``clients -> (throughput, p99)``; points from 100
    clients up go in the ``cluster`` section as two-shard rows."""
    rows = [
        {
            "clients": clients,
            "throughput_per_second": tput,
            "latency_p99_seconds": p99,
        }
        for clients, (tput, p99) in points.items()
    ]
    return {
        "benchmark": "service_scaling",
        "seed": key,
        "points": [row for row in rows if row["clients"] < 100],
        "cluster": {
            "points": [
                dict(row, shards=2) for row in rows if row["clients"] >= 100
            ]
        },
    }


# The one report family left (the fixture keeps its parameter so test
# ids stay ``[service]``): two seeds, a baseline point set, its first
# label, and every way that point can get worse by 10%.
FAMILIES = {
    "service": dict(
        keys=(0, 7),
        base={4: (80.0, 0.10), 128: (600.0, 0.30)},
        label="service c4",
        worse={
            "throughput_per_second": {4: (72.0, 0.10), 128: (600.0, 0.30)},
            "latency_p99_seconds": {4: (80.0, 0.11), 128: (600.0, 0.30)},
        },
        slightly_worse={4: (79.0, 0.101), 128: (600.0, 0.30)},
        better={4: (160.0, 0.05), 128: (600.0, 0.30)},
        one_sided=(
            {4: (80.0, 0.1), 8: (90.0, 0.2)},
            {4: (80.0, 0.1), 128: (600.0, 0.3)},
            ["service c8"],
            ["cluster 2x128"],
        ),
    ),
}


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]


def diff(family, old_points, new_points, keys=None, **kwargs):
    old_key, new_key = keys or (family["keys"][0],) * 2
    return diff_points(
        service_points(service_report(old_key, old_points)),
        service_points(service_report(new_key, new_points)),
        **kwargs,
    )


class TestDiffPoints:
    def test_identical_reports_have_no_regressions(self, family):
        result = diff(
            family, family["base"], family["base"], max_regression=0.03
        )
        assert result["comparable"]
        assert result["regressions"] == []
        for metrics in result["points"].values():
            for entry in metrics.values():
                assert entry["ratio"] == 1.0 and not entry["regressed"]

    def test_each_metric_regresses_in_its_own_direction(self, family):
        for metric, points in family["worse"].items():
            result = diff(
                family, family["base"], points, max_regression=0.03
            )
            flagged = {
                (label, name)
                for label, metrics in result["points"].items()
                for name, entry in metrics.items()
                if entry["regressed"]
            }
            assert flagged == {(family["label"], metric)}
            assert len(result["regressions"]) == 1
            assert family["label"] in result["regressions"][0]
            assert metric in result["regressions"][0]

    def test_drift_within_the_limit_passes(self, family):
        result = diff(
            family,
            family["base"],
            family["slightly_worse"],
            max_regression=0.03,
        )
        assert result["regressions"] == []

    def test_improvements_never_regress(self, family):
        result = diff(
            family, family["base"], family["better"], max_regression=0.0
        )
        assert result["regressions"] == []

    def test_key_mismatch_is_incomparable_and_fails(self, family):
        result = diff(
            family, family["base"], family["base"], keys=family["keys"]
        )
        assert not result["comparable"]
        assert result["points"] == {}
        assert len(result["regressions"]) == 1
        assert "seed mismatch" in result["regressions"][0]

    def test_one_sided_points_are_listed_not_judged(self, family):
        old, new, only_old, only_new = family["one_sided"]
        result = diff(family, old, new)
        assert result["only_old"] == only_old
        assert result["only_new"] == only_new
        assert result["regressions"] == []

    def test_render_flags_regressions(self, family):
        points = next(iter(family["worse"].values()))
        rendered = render_diff(diff(family, family["base"], points))
        assert "REGRESSED" in rendered
        assert "1 regression(s):" in rendered
        ok = render_diff(diff(family, family["base"], family["base"]))
        assert "no regressions" in ok


class TestBenchDiffCommand:
    def _write(self, tmp_path, name, family, points, key=None):
        path = tmp_path / name
        key = family["keys"][0] if key is None else key
        path.write_text(json.dumps(service_report(key, points)))
        return str(path)

    def test_exit_zero_when_within_limit(self, tmp_path, family):
        a = self._write(tmp_path, "a.json", family, family["base"])
        b = self._write(tmp_path, "b.json", family, family["slightly_worse"])
        code, out = run_cli(["bench-diff", a, b, "--max-regression", "3"])
        assert code == 0
        assert "no regressions" in out

    def test_exit_nonzero_on_regression(self, tmp_path, family):
        a = self._write(tmp_path, "a.json", family, family["base"])
        for index, points in enumerate(family["worse"].values()):
            b = self._write(tmp_path, f"b{index}.json", family, points)
            code, out = run_cli(
                ["bench-diff", a, b, "--max-regression", "3"]
            )
            assert code == 1
            assert "REGRESSED" in out

    def test_key_mismatch_fails(self, tmp_path, family):
        a = self._write(tmp_path, "a.json", family, family["base"])
        b = self._write(
            tmp_path, "b.json", family, family["base"], family["keys"][1]
        )
        code, out = run_cli(["bench-diff", a, b])
        assert code == 1
        assert "seed mismatch" in out

    def test_cross_family_diff_is_refused(self, tmp_path, capsys):
        svc = FAMILIES["service"]
        a = self._write(tmp_path, "a.json", svc, svc["base"])
        b = tmp_path / "b.json"  # any JSON that is not a service sweep
        b.write_text(json.dumps({"schema": 1, "scale": "smoke", "workloads": {}}))
        code, _out = run_cli(["bench-diff", a, str(b)])
        assert code == 1
        err = capsys.readouterr().err
        assert "b.json" in err and "not a service_scaling report" in err


class TestTraceCommand:
    def test_trace_writes_report_with_exact_attribution(self, tmp_path):
        output = str(tmp_path / "trace.json")
        export = str(tmp_path / "trace.jsonl")
        code, out = run_cli(
            [
                "trace",
                "--clients",
                "4",
                "--requests-per-client",
                "5",
                "--fill",
                "0",
                "--size",
                "32M",
                "--output",
                output,
                "--export",
                export,
            ]
        )
        assert code == 0
        assert "requests traced" in out
        with open(output) as handle:
            report = json.load(handle)
        assert report["requests"] == 20
        assert report["max_sum_error"] < 1e-9
        assert report["wamp"]["write_amplification"] >= 1.0
        with open(export) as handle:
            lines = handle.read().splitlines()
        assert lines, "JSONL export is empty"
        assert json.loads(lines[-1])["type"] == "summary"
