"""Every row of the benchmark tracer's ``ENTRY_POINTS`` names live code.

``benchmarks/e2e/tracing.py`` looks each entry point up by name when
``run.py --trace 1`` installs its wrappers, so a name deleted from
``src/`` while its row stays would fail only in that run.  This reads
the table and resolves every row without installing any wrapper.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved(entry_points, all_marker):
    """The rows' names that do not resolve, as ``module.name`` strings."""
    missing = []
    for _component, module_name, class_name, names in entry_points:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
            continue
        if class_name is None:
            missing.extend(
                f"{module_name}.{name}"
                for name in names
                if not callable(getattr(module, name, None))
            )
            continue
        owner = getattr(module, class_name, None)
        if not isinstance(owner, type):
            missing.append(f"{module_name}.{class_name}")
        elif names != all_marker:
            missing.extend(
                f"{module_name}.{class_name}.{name}"
                for name in names
                if name not in vars(owner)
            )
    return missing


def test_every_entry_point_resolves():
    tracing = load_tracing()
    assert tracing.ENTRY_POINTS
    assert unresolved(tracing.ENTRY_POINTS, tracing.ALL) == []


def test_a_deleted_name_is_reported():
    tracing = load_tracing()
    rows = (
        ("sim", "repro.sim.clock", "SimClock", ("advance", "rewind")),
        ("sim", "repro.sim.clock", "NoSuchClock", tracing.ALL),
        ("sim", "repro.sim.crashpoints", None, ("crashpoint", "is_armed")),
        ("sim", "repro.sim.no_such_module", None, ("anything",)),
    )
    assert unresolved(rows, tracing.ALL) == [
        "repro.sim.clock.SimClock.rewind",
        "repro.sim.clock.NoSuchClock",
        "repro.sim.crashpoints.is_armed",
        "repro.sim.no_such_module",
    ]
