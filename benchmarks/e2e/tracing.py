"""Host-time spans at the layer boundaries, recorded from outside ``src/``.

``ENTRY_POINTS`` names the calls through which control enters each
layer (a ``src/repro`` package), some of them tagged with a component
inside the layer (``lfs.cleaner``).  :meth:`Tracer.install` replaces
each with a wrapper, in the traced child process only.  A wrapper opens
a span when the call crosses from one component into another and
passes calls inside a component straight through, so a span's self
time (its duration minus the time its child spans cover) is the host
time spent in that component's own code.  Spans are summed in memory
per (entry point, calling component); the top two levels are also kept
whole and can be written out as JSONL when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter
from types import FunctionType
from typing import Any, Dict, Iterator, List, Tuple

ALL = "*"  # every plain method the class itself defines

# component, module, class (None: module-level functions), names.
# Where two rows name the same attribute, the first wins.
ENTRY_POINTS = (
    ("sim", "repro.sim.clock", "SimClock", ("advance", "advance_to", "call_at")),
    ("sim", "repro.sim.cpu", "CpuModel", ALL),
    ("disk.alloc", "repro.disk.device", "SectorDevice", ("__init__",)),
    ("disk.snapshot", "repro.disk.device", "SectorDevice", ("snapshot",)),
    ("disk", "repro.disk.device", "SectorDevice", ALL),
    ("disk", "repro.disk.sim_disk", "SimDisk", ALL),
    ("cache", "repro.cache.block_cache", "BlockCache", ALL),
    ("cache", "repro.cache.writeback", "WritebackMonitor", ALL),
    ("cache", "repro.cache.readahead", "ReadaheadPolicy", ALL),
    ("common", "repro.common.directory", "DirectoryBlock", ALL),
    ("common", "repro.common.inode", "Inode", ALL),
    ("common", "repro.common.inode", "BlockMap", ALL),
    ("common", "repro.common.serialization", "Packer", ALL),
    ("common", "repro.common.serialization", "Unpacker", ALL),
    ("common", "repro.common.serialization", "BatchPacker", ALL),
    (
        "common", "repro.common.serialization", None,
        (
            "checksum", "checksum_chain", "segment_checksum", "pad_block",
            "pack_u64_array", "unpack_u64_array",
        ),
    ),
    ("vfs", "repro.vfs.interface", "FileHandle", ALL),
    (
        "vfs", "repro.vfs.interface", "StorageManager",
        ("exists", "write_file", "read_file"),
    ),
    ("vfs", "repro.vfs.base", "BaseFileSystem", ALL),
    ("lfs.mount", "repro.lfs.filesystem", "LogStructuredFS", ("mount",)),
    ("lfs.mount", "repro.lfs.recovery", None, ("roll_forward",)),
    (
        "lfs.flush", "repro.lfs.filesystem", "LogStructuredFS",
        ("flush_log", "fsync", "fsync_many", "_writeback", "_build_plan"),
    ),
    ("lfs.flush", "repro.lfs.segments", "SegmentManager", ALL),
    (
        "lfs.checkpoint", "repro.lfs.filesystem", "LogStructuredFS",
        ("checkpoint", "_write_checkpoint"),
    ),
    ("lfs.checkpoint", "repro.lfs.checkpoint", "CheckpointManager", ALL),
    ("lfs.cleaner", "repro.lfs.cleaner", "SegmentCleaner", ALL),
    ("lfs.verify", "repro.lfs.verify", None, ("verify_lfs",)),
    ("lfs", "repro.lfs.filesystem", "LogStructuredFS", ALL),
    ("lfs", "repro.lfs.inode_map", "InodeMap", ALL),
    ("lfs", "repro.lfs.segment_usage", "SegmentUsage", ALL),
    ("ffs", "repro.ffs.filesystem", "FastFileSystem", ALL),
    ("ffs", "repro.ffs.allocator", "Allocator", ALL),
    ("ffs", "repro.ffs.fsck", None, ("fsck",)),
    ("service", "repro.service.scheduler", "RequestScheduler", ALL),
    ("service", "repro.service.scheduler", None, ("prefill",)),
    ("service", "repro.service.admission", "AdmissionController", ALL),
    ("service", "repro.service.committer", "GroupCommitter", ALL),
    ("cluster", "repro.cluster.sim", None, ("run_cluster", "run_group")),
    ("cluster", "repro.cluster.router", "ShardRouter", ALL),
    ("cluster", "repro.cluster.migrate", "ShardMigrator", ALL),
    ("obs", "repro.obs.registry", "Counter", ("inc",)),
    ("obs", "repro.obs.registry", "Gauge", ("set", "add")),
    ("obs", "repro.obs.registry", "Histogram", ("observe",)),
    (
        "obs", "repro.obs.tracer", "SpanTracer",
        ("span", "begin", "finish", "resume", "suspend"),
    ),
    ("obs", "repro.obs.context", "TraceContext", ALL),
    ("obs", "repro.obs.context", "RequestTracer", ALL),
    (
        "harness", "repro.harness.parallel", None,
        ("run_tasks", "merge_metric_samples", "export_telemetry_totals"),
    ),
)

RAW_LEVELS = 2
RAW_LIMIT = 200_000


def _own_methods(owner: type) -> Iterator[str]:
    for name, value in vars(owner).items():
        function = getattr(value, "__func__", value)
        if (
            isinstance(function, FunctionType)
            and not name.startswith("__")
            and not inspect.isgeneratorfunction(function)
        ):
            yield name


class Tracer:
    """Wraps the entry points and sums the spans they open."""

    def __init__(self) -> None:
        # One frame per open span: component, seconds covered by its
        # child spans, span id.  The bottom frame is the benchmark.
        self.stack: List[List[Any]] = [["bench", 0.0, 0]]
        # (entry point, calling component) -> calls, seconds, self seconds
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.component_of: Dict[str, str] = {}
        self.raw: List[Tuple[Any, ...]] = []
        self.raw_dropped = 0
        self._next_id = 1
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, function, component: str, entry: str):
        stack, totals, raw = self.stack, self.totals, self.raw
        self.component_of[entry] = component

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == component:
                return function(*args, **kwargs)
            frame = [component, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                parent[1] += seconds
                key = (entry, parent[0])
                row = totals.get(key)
                if row is None:
                    row = totals[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += seconds
                row[2] += seconds - frame[1]
                if len(stack) <= RAW_LEVELS:
                    if len(raw) < RAW_LIMIT:
                        raw.append(
                            (frame[2], parent[2], component, entry, start, end)
                        )
                    else:
                        self.raw_dropped += 1

        return traced

    def install(self) -> None:
        claimed = set()
        functions = {}  # module-level function -> its wrapper
        for component, module_name, class_name, names in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in names:
                    original = getattr(module, name)
                    functions[original] = self.wrap(original, component, name)
                continue
            owner = getattr(module, class_name)
            for name in _own_methods(owner) if names == ALL else names:
                if (owner, name) in claimed:
                    continue
                claimed.add((owner, name))
                original = vars(owner)[name]
                kind = type(original)
                traced = self.wrap(
                    getattr(original, "__func__", original),
                    component,
                    f"{class_name}.{name}",
                )
                if kind in (classmethod, staticmethod):
                    traced = kind(traced)
                setattr(owner, name, traced)
                self._undo.append((owner, name, original))
        # A function is rebound everywhere it was imported by name, not
        # only in the module that defines it.
        for module in list(sys.modules.values()):
            for attribute, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in functions:
                    setattr(module, attribute, functions[value])
                    self._undo.append((module, attribute, value))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take(self) -> Dict[str, Any]:
        """The spans summed since the last call, and the seconds the
        top-level ones cover.  Call it from the benchmark's own code,
        where no span is open."""
        if len(self.stack) != 1:
            raise RuntimeError("take() called inside an open span")
        window = {
            "covered_s": self.stack[0][1],
            "rows": [
                [self.component_of[entry], entry, caller, *row]
                for (entry, caller), row in self.totals.items()
            ],
        }
        self.totals.clear()
        self.stack[0][1] = 0.0
        return window

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, component, entry, start, end in self.raw:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": component,
                    "entry": entry, "start": start, "end": end,
                }) + "\n")
            if self.raw_dropped:
                out.write(json.dumps({"dropped": self.raw_dropped}) + "\n")


def layer_of(component: str) -> str:
    return component.split(".")[0]


def _matching(window: Dict[str, Any], prefix: str) -> Iterator[List[Any]]:
    """Rows of a layer (``lfs``), a component (``lfs.cleaner``) or an
    entry point (``BlockCache.insert``)."""
    for row in window["rows"]:
        if prefix in (layer_of(row[0]), row[0], row[1]):
            yield row


def self_seconds(window: Dict[str, Any], prefix: str) -> float:
    return sum(row[5] for row in _matching(window, prefix))


def calls(window: Dict[str, Any], prefix: str) -> int:
    return sum(row[3] for row in _matching(window, prefix))


def inclusive_seconds(windows, component: str) -> float:
    """Whole duration of a component's spans, over every window."""
    return sum(
        seconds
        for window in windows
        for row_component, _, _, _, seconds, _ in window["rows"]
        if row_component == component
    )
