"""Self-tests of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``: they run every workload at smoke scale
three times over and take about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import catalog
import run as runner
import tracing
import workloads  # noqa: F401  (puts src/ on the path for the imports below)

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, text=True,
    )


def driver_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of every workload per trace setting."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        done = run_py("--smoke", "--trace", str(trace), "--output", str(path))
        assert done.returncode == 0, done.stdout
        runs[trace] = (driver_lines(done.stdout), json.loads(path.read_text()), path)
    return runs


def test_manifest_lists_what_the_catalog_lists():
    manifest = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == list(
        catalog.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ] == [(n, u, b, bound) for n, u, _, b, bound in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (n, u, b) for n, u, b, _ in catalog.PER_LAYER
    ]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert len(manifest["per_layer"]) <= 128


@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric_with_its_unit(smoke, trace):
    lines, document, _ = smoke[trace]
    wanted = {
        name: unit
        for name, unit, *_ in (catalog.PER_LAYER if trace else catalog.END_TO_END)
    }
    assert list(document["workloads"]) == list(catalog.WORKLOADS)
    assert len(lines) == len(catalog.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
        for name, metric in line["metrics"].items():
            assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"])
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(smoke):
    for line in smoke[0][0]:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_layers_that_take_no_part_read_zero(smoke):
    by_workload = dict(zip(catalog.WORKLOADS, smoke[1][0]))
    small = by_workload["smallfile"]["metrics"]
    cluster = by_workload["cluster_migrate"]["metrics"]
    assert small["cluster.self_s"]["value"] == small["service.calls"]["value"] == 0
    assert small["ffs.self_s"]["value"] > 0 and small["ffs.lfs_speedup"]["value"] > 1
    assert cluster["obs.calls"]["value"] > 100 * small["obs.calls"]["value"]
    assert cluster["cluster.migrated_files"]["value"] > 0
    shares = [
        value["value"]
        for name, value in by_workload["service_clean"]["metrics"].items()
        if name.startswith("service.lat_share_")
    ]
    assert sum(shares) == pytest.approx(1.0, abs=1e-4)


def test_span_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    inner = tracer.wrap(leaf, "cache", "leaf")
    same_layer = tracer.wrap(lambda: inner(), "vfs", "helper")

    def outer_body():
        time.sleep(0.01)
        same_layer()  # vfs -> vfs: passes straight through, no span
        inner()

    outer = tracer.wrap(outer_body, "vfs", "outer")
    outer()
    window = tracer.take()
    rows = {(entry, caller): row for _, entry, caller, *row in window["rows"]}
    assert set(rows) == {("outer", "bench"), ("leaf", "vfs")}
    count, seconds, own = rows[("outer", "bench")]
    leaf_count, leaf_seconds, leaf_own = rows[("leaf", "vfs")]
    assert (count, leaf_count) == (1, 2)
    assert leaf_own == leaf_seconds >= 0.04
    assert own == pytest.approx(seconds - leaf_seconds) and own >= 0.01
    assert window["covered_s"] == seconds
    assert tracing.self_seconds(window, "vfs") == own
    assert tracing.self_seconds(window, "leaf") == leaf_own
    assert tracer.take() == {"covered_s": 0.0, "rows": []}
    # Both levels are kept whole, children before their parent.
    assert [span[3] for span in tracer.raw] == ["leaf", "leaf", "outer"]
    assert {span[1] for span in tracer.raw[:2]} == {tracer.raw[2][0]}


def test_layer_self_times_and_untracked_add_up_to_the_traced_wall():
    child = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "crash_recover", "0",
         "traced", "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    measured = result["windows"]["measured"]
    layers = sum(tracing.self_seconds(measured, layer) for layer in catalog.LAYERS)
    untracked = result["measured_s"] - measured["covered_s"]
    assert layers + untracked == pytest.approx(result["measured_s"], rel=0.01)
    assert 0 <= untracked < 0.10 * result["measured_s"]
    assert {layer for layer in catalog.LAYERS
            if tracing.self_seconds(measured, layer) > 0} >= {
        "sim", "disk", "cache", "common", "vfs", "lfs",
    }


def test_wrappers_leave_the_classes_untouched_afterwards():
    def attributes():
        found = {}
        for _, module_name, class_name, names in tracing.ENTRY_POINTS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner = getattr(module, class_name) if class_name else module
            listed = tracing._own_methods(owner) if names == tracing.ALL else names
            for name in listed:
                found[(module_name, class_name, name)] = vars(owner)[name]
        return found

    tracer = tracing.Tracer()
    tracer.install()
    wrapped = attributes()
    tracer.uninstall()
    restored = attributes()
    assert wrapped.keys() == restored.keys() and len(restored) > 300
    assert all(wrapped[key] is not restored[key] for key in restored)
    assert not any(
        hasattr(getattr(value, "__func__", value), "__wrapped__")
        for value in restored.values()
    )
    # The benchmark's own by-name imports were rebound and put back too.
    assert workloads.verify_lfs is sys.modules["repro.lfs.verify"].verify_lfs
    assert not hasattr(workloads.verify_lfs, "__wrapped__")


def test_untraced_child_never_loads_the_wrappers():
    code = (
        "import sys, workloads; workloads.main(['crash_recover', '0', "
        "'untraced', '--smoke']); sys.exit('tracing' in sys.modules)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, stdout=subprocess.PIPE
    )
    assert child.returncode == 0


def test_injected_mismatch_fails_the_run():
    done = run_py("--smoke", "--workload", "smallfile", "--inject-fault")
    (line,) = driver_lines(done.stdout)
    assert done.returncode != 0
    assert not line["correct"] and line["failed"] == 1
    assert "failed_op_ratio=0.000606" in done.stdout  # 1 of 1650


def test_compare_demands_exact_sim_metrics_for_one_tree_and_seed(smoke, tmp_path):
    _, document, path = smoke[0]
    again = tmp_path / "again.json"
    assert run_py("--smoke", "--output", str(again)).returncode == 0
    # Smoke phases are too short for the host bounds; keep the test to
    # what must repeat exactly.
    second = json.loads(again.read_text())
    for workload, result in second["workloads"].items():
        for name, _, clock, _, _ in catalog.END_TO_END:
            if clock == "host":
                result["metrics"][name] = document["workloads"][workload][
                    "metrics"
                ][name]
    again.write_text(json.dumps(second))
    same = run_py("compare", str(path), str(again))
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout and "identical" in same.stdout

    metric = document["workloads"]["largefile"]["metrics"]["write_amp"]
    metric["value"] *= 1.000001
    metric["reps"] = [metric["value"]]
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(document))
    worse = run_py("compare", str(path), str(drifted))
    assert worse.returncode == 1
    (verdict,) = [
        line for line in worse.stdout.splitlines() if "regressed" in line
    ]
    assert verdict.split()[:2] == ["largefile", "write_amp"]

    # Another seed: only the bounds apply, and host metrics may regress.
    document["seed"] += 1
    drifted.write_text(json.dumps(document))
    assert run_py("compare", str(path), str(drifted)).returncode == 0
    slow = document["workloads"]["smallfile"]["metrics"]["ops_per_wall_s"]
    slow["value"] *= 0.7
    drifted.write_text(json.dumps(document))
    assert run_py("compare", str(path), str(drifted)).returncode == 1
