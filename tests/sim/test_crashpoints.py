"""The crash-point table, its hook, and its call sites in the stack."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.faults.chaos import _chaos_service_config
from repro.rig import new_rig
from repro.service.config import SERVICE_LFS_CONFIG
from repro.service.scheduler import RequestScheduler, prefill
from repro.sim import crashpoints
from repro.sim.crashpoints import CRASHPOINTS, armed, crashpoint
from repro.units import MIB

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def call_sites() -> Counter:
    """How many ``crashpoint(NAME, ...)`` calls name each point."""
    sites: Counter = Counter()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None
            )
            if callee == "crashpoint" and node.args:
                sites[ast.literal_eval(node.args[0])] += 1
    return sites


def test_every_crashpoint_has_exactly_one_call_site():
    assert call_sites() == Counter(dict.fromkeys(CRASHPOINTS, 1))


def test_unarmed_crashpoint_does_nothing():
    assert crashpoints._hook is None
    crashpoint("disk.write", 0)


def test_armed_hook_sees_points_and_is_cleared_when_the_body_raises():
    seen = []
    with pytest.raises(RuntimeError):
        with armed(lambda name, at: seen.append((name, at))):
            crashpoint("disk.write", 9)
            crashpoint("fsync.begin")
            raise RuntimeError("body failed")
    assert seen == [("disk.write", 9), ("fsync.begin", None)]
    assert crashpoints._hook is None


def test_a_loaded_service_rig_passes_every_crashpoint():
    # The throttle-payback rig cleans, group-commits and throttles
    # writers in a short run: every point in the table is reached.
    config = _chaos_service_config(0, 0, 4, 40, "throttle-payback")
    fs = new_rig(
        "lfs", total_bytes=32 * MIB, lfs_config=SERVICE_LFS_CONFIG,
        service=config,
    ).fs
    prefill(fs, config)
    seen = set()
    with armed(lambda name, at: seen.add(name)):
        RequestScheduler(fs, config).run()
    assert seen == set(CRASHPOINTS)
