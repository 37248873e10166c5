"""A dependency-free linter for the classes of defect this repo cares
about: unused imports, write-only local variables, instrumented modules
that bypass the telemetry registry with bare ``print`` (OBS001) or
emit metric/span names missing from the registered vocabulary
(OBS002), broad ``except`` clauses in the crash-recovery modules
(FAULT001) and in the crash-campaign/chaos/scheduler modules
(FAULT002), unregistered crash points (FAULT003), wall-clock calls in
the simulated-time service and cluster layers (SVC001), buffer copies
on the zero-copy data path (ALLOC001), and simulated machines
assembled by hand instead of through
:func:`repro.rig.new_rig` (RIG001), the offline verifier reaching
for the structures it is the oracle for (VER001), code outside the
cache package reaching into the block cache's state (CACHE001), and
code outside the sim package reaching into the simulated clock's state
(CLOCK001).

``make lint`` always runs this module, and runs ``ruff`` after it when
ruff is installed (configuration in ``pyproject.toml``); the unused
import and write-only variable checks are written to be a strict
subset of what ruff's F401/F841 would flag.  It is deliberately conservative: a check that cannot be decided
from the AST alone is skipped rather than guessed.

Usage::

    python -m repro.tools.lint [paths...]     # defaults to src tests benchmarks
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Set, Tuple

_DYNAMIC_SCOPE_CALLS = {"locals", "vars", "eval", "exec", "globals"}


def _iter_python_files(paths: List[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            ]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _noqa_lines(source: str) -> Set[int]:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if "# noqa" in line
    }


def _used_names(tree: ast.AST) -> Set[str]:
    """Every identifier the module could reference, including string
    annotations (``from __future__ import annotations`` keeps them as
    AST nodes, so plain Name collection covers those too) and __all__."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # the chain root is a Name and already collected
            continue
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __all__ entries, forward references in annotations
            used.add(node.value)
    return used


def _check_unused_imports(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    if os.path.basename(path) == "__init__.py":
        return  # packages import for re-export
    used = _used_names(tree)
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = node.names
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = node.names
        for alias in names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used or node.lineno in noqa:
                continue
            yield (
                path,
                node.lineno,
                f"F401 `{alias.asname or alias.name}` imported but unused",
            )


def _function_has_dynamic_scope(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _DYNAMIC_SCOPE_CALLS
        ):
            return True
    return False


def _check_unused_locals(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _function_has_dynamic_scope(func):
            continue
        declared_elsewhere: Set[str] = set()
        stores: dict[str, int] = {}
        loads: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared_elsewhere.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                elif isinstance(node.ctx, ast.Del):
                    loads.add(node.id)
            # Only plain single-target assignments: loop variables,
            # tuple unpacking, with-targets and walrus all have common
            # intentionally-unused idioms.
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    stores.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                loads.add(node.target.id)
        for name, lineno in sorted(stores.items(), key=lambda item: item[1]):
            if (
                name.startswith("_")
                or name in loads
                or name in declared_elsewhere
                or lineno in noqa
            ):
                continue
            yield (
                path,
                lineno,
                f"F841 local variable `{name}` is assigned to but never used",
            )


_OBS_INSTRUMENTED_DIRS = ("repro/lfs/", "repro/cache/")
"""Directories whose modules, once they import ``repro.obs``, must
publish through the registry — a stray ``print`` there is almost always
debug output that should have been a metric or a span attribute."""


def _imports_obs(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == "repro.obs" or alias.name.startswith("repro.obs.")
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro.obs" or module.startswith("repro.obs."):
                return True
    return False


def _check_obs_print_bypass(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if not any(marker in normalized for marker in _OBS_INSTRUMENTED_DIRS):
        return
    if not _imports_obs(tree):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and node.lineno not in noqa
        ):
            yield (
                path,
                node.lineno,
                "OBS001 bare `print` in a telemetry-instrumented module; "
                "publish through the registry or tracer instead",
            )


_OBS_NAME_DIRS = (
    "repro/lfs/",
    "repro/cache/",
    "repro/disk/",
    "repro/service/",
    "repro/vfs/",
    "repro/faults/",
)
"""Instrumented directories whose metric names and span kinds must come
from the registered vocabulary in :mod:`repro.obs.names`.

A telemetry series name typed inline at the emit site can drift from
the name the dashboards, the attribution analyzer and the merge path
expect — ``wamp.user_byte`` instead of ``wamp.user_bytes`` fails
silently, producing a fresh series nobody reads.  OBS002 forces every
literal handed to ``.counter()/.gauge()/.histogram()`` or
``.span()/.begin()`` in these directories to be a member of
``METRIC_NAMES`` / ``SPAN_KINDS``, so adding an instrument means
registering its name first."""

_OBS_METRIC_METHODS = ("counter", "gauge", "histogram")
_OBS_SPAN_METHODS = ("span", "begin")


def _registered_obs_names() -> Tuple[Set[str], Set[str]]:
    from repro.obs.names import METRIC_NAMES, SPAN_KINDS

    return set(METRIC_NAMES), set(SPAN_KINDS)


def _check_obs_registered_names(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if not any(marker in normalized for marker in _OBS_NAME_DIRS):
        return
    metric_names, span_kinds = _registered_obs_names()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        method = node.func.attr
        name = node.args[0].value
        if method in _OBS_METRIC_METHODS:
            registered, table = metric_names, "METRIC_NAMES"
        elif method in _OBS_SPAN_METHODS:
            registered, table = span_kinds, "SPAN_KINDS"
        else:
            continue
        if name in registered or node.lineno in noqa:
            continue
        yield (
            path,
            node.lineno,
            f"OBS002 unregistered telemetry name `{name}` passed to "
            f"`.{method}()`; register it in repro.obs.names.{table}",
        )


_RECOVERY_TYPED_FILES = ("repro/lfs/recovery.py", "repro/lfs/checkpoint.py")
"""Crash-recovery modules where every caught exception must be typed.

A blanket ``except Exception`` there can silently swallow the very
corruption signals (``ChecksumMismatch``, ``MediaError``, ...) the
recovery path exists to classify, turning detected damage into wrong
answers.  The crash campaign (:mod:`repro.faults`) relies on anything
unexpected escaping these modules."""


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    kinds = []
    if handler.type is None:  # bare `except:`
        return True
    if isinstance(handler.type, ast.Tuple):
        kinds = list(handler.type.elts)
    else:
        kinds = [handler.type]
    return any(
        isinstance(kind, ast.Name) and kind.id in ("Exception", "BaseException")
        for kind in kinds
    )


def _check_recovery_broad_except(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if not normalized.endswith(_RECOVERY_TYPED_FILES):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _is_broad_handler(node)
            and node.lineno not in noqa
        ):
            yield (
                path,
                node.lineno,
                "FAULT001 broad `except` in a crash-recovery module; "
                "catch typed repro.errors classes so corruption stays "
                "classified",
            )


_CHAOS_TYPED_FILES = (
    "repro/faults/campaign.py",
    "repro/faults/chaos.py",
    "repro/faults/model.py",
    "repro/service/scheduler.py",
)
"""Crash-under-load modules where every caught exception must be typed.

The chaos campaign's contract is that a crash mid-request never leaves
the scheduler loop via anything but a typed error or the deliberate
:class:`~repro.faults.chaos.CrashSignal`.  A blanket ``except
Exception`` in the scheduler would absorb the injected crash (or a real
defect) and report a clean trial; in a campaign driver it would mask a
checker bug as a passing campaign, and in the model's reads of the
recovered file system it would hide a violation.  The one legitimate
outcome classifier (``SeededTrial.run``) carries an explicit ``# noqa:
FAULT002``."""


def _check_chaos_broad_except(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if not normalized.endswith(_CHAOS_TYPED_FILES):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _is_broad_handler(node)
            and node.lineno not in noqa
        ):
            yield (
                path,
                node.lineno,
                "FAULT002 broad `except` in a crash-under-load module; "
                "catch typed repro.errors classes (or CrashSignal) so "
                "injected crashes and real defects stay distinguishable",
            )


def _check_crashpoint_names(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    """FAULT003: crash plans arm crash points by name, so a call whose
    name is not a literal entry of ``CRASHPOINTS`` is one no plan can
    reach (the call-site analogue of OBS002)."""
    from repro.sim.crashpoints import CRASHPOINTS

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.lineno in noqa:
            continue
        func = node.func
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        name = node.args[0] if node.args else None
        if callee != "crashpoint" or (
            isinstance(name, ast.Constant) and name.value in CRASHPOINTS
        ):
            continue
        yield (
            path,
            node.lineno,
            "FAULT003 `crashpoint()` must name an entry of "
            "repro.sim.crashpoints.CRASHPOINTS as a string literal",
        )


_SERVICE_DIRS = ("repro/service/", "repro/cluster/")
_WALL_CLOCK_ATTRS = ("time", "sleep", "monotonic", "perf_counter")
"""Wall-clock entry points of the ``time`` module.

The service and cluster layers are simulated-time only: every delay is
a timer on the shared :class:`~repro.sim.clock.SimClock`, which is what
makes runs seed-deterministic and byte-identical across hosts (and
across ``--jobs`` values — a cluster shard group must replay the same
on any worker).  One stray ``time.time()`` in a latency calculation or
``time.sleep()`` in a backoff silently breaks both, so SVC001 bans
them outright."""


def _check_service_wall_clock(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if not any(part in normalized for part in _SERVICE_DIRS):
        return
    for node in ast.walk(tree):
        finding = None
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            banned = [
                alias.name
                for alias in node.names
                if alias.name in _WALL_CLOCK_ATTRS or alias.name == "*"
            ]
            if banned:
                finding = f"`from time import {', '.join(banned)}`"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
            and node.func.attr in _WALL_CLOCK_ATTRS
        ):
            finding = f"`time.{node.func.attr}()`"
        if finding and node.lineno not in noqa:
            yield (
                path,
                node.lineno,
                f"SVC001 {finding} in the service layer; the service "
                "runs on simulated time only (SimClock.call_at)",
            )


_ALLOC_HOT_PATHS = ("repro/disk/", "repro/lfs/segments.py")
"""Zero-copy data-path files where buffer copies are budgeted.

The device read path returns memoryviews and the segment writer
assembles partial segments in pooled buffers, so a ``bytes(...)`` or
``b"".join(...)`` there is usually an accidental reintroduction of a
per-I/O copy.  The genuinely necessary copies (crash-rollback undo
records, explicit snapshot APIs) carry an ``# alloc-ok:`` comment on
the call's line, which is ALLOC001's escape hatch."""


def _alloc_ok_lines(source: str) -> Set[int]:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if "# alloc-ok" in line
    }


def _check_hot_path_allocs(
    path: str, tree: ast.Module, noqa: Set[int], alloc_ok: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if not any(marker in normalized for marker in _ALLOC_HOT_PATHS):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        finding = None
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "bytes"
            and node.args
        ):
            finding = "`bytes(...)`"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, bytes)
        ):
            finding = f"`{node.func.value.value!r}.join(...)`"
        if (
            finding
            and node.lineno not in alloc_ok
            and node.lineno not in noqa
        ):
            yield (
                path,
                node.lineno,
                f"ALLOC001 {finding} copies a buffer on the zero-copy "
                "data path; use memoryview slices or the pooled segment "
                "buffer, or mark a deliberate copy with `# alloc-ok:`",
            )


_RIG_BUILDER_HOMES = ("src/repro/rig.py", "src/repro/disk/")
"""Where a ``SimDisk`` may be constructed inside ``src/repro/``.

A rig is clock + CPU model + device + ``SimDisk`` + file system, and
:func:`repro.rig.new_rig` is the one place that stack is assembled —
and the one place a serviced rig is cross-validated before it boots.
A second hand-built stack is how ``cluster-sim`` once booted volumes
``serve-sim`` rejected, so RIG001 flags any other construction site in
the package (tests and benchmarks build bare disks freely)."""


def _check_rig_builder(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if "src/repro/" not in normalized or any(
        home in normalized for home in _RIG_BUILDER_HOMES
    ):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SimDisk"
            and node.lineno not in noqa
        ):
            yield (
                path,
                node.lineno,
                "RIG001 `SimDisk` constructed outside repro.rig; assemble "
                "simulated machines with repro.rig.new_rig",
            )


_VERIFIER_SUBJECTS = frozenset(
    ("InodeMap", "LogStructuredFS", "SegmentManager", "SegmentCleaner", "roll_forward")
)
"""What ``repro/lfs/verify.py`` is the oracle for, and so may not be built
on: ``verify_lfs`` is trusted because it walks the image itself.  Record
codecs and constants are fair imports."""


def _check_verifier_independence(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    if not path.replace(os.sep, "/").endswith("repro/lfs/verify.py"):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [node.attr] if isinstance(node, ast.Attribute) else []
        for name in names:
            if name in _VERIFIER_SUBJECTS and node.lineno not in noqa:
                yield (
                    path,
                    node.lineno,
                    f"VER001 `{name}` used by the verifier; it is the "
                    "oracle for that code and must walk the image itself",
                )


_CACHE_STATS_FIELDS = frozenset(("hits", "misses", "insertions", "evictions"))
"""The counters of :class:`~repro.cache.block_cache.CacheStats`.

The block cache counts every lookup itself, including the ones a caller
that walks the pointer tree once per run accounts in bulk through
``BlockCache.rehit``.  CACHE001 keeps it that way: outside
``repro/cache`` nothing reads the cache's private state (``._blocks``,
``._dirty``, ``._heap``, ``._next_stamp``, ``._m_*`` ...) or writes a
``CacheStats`` field.  ``CacheBlock`` has no private state, so the
receiver to watch is whatever names the cache (``cache``,
``self.cache``, ``fs.cache``); an alias the AST cannot see through is
skipped rather than guessed."""


def _receiver_named(node: ast.expr, suffix: str) -> bool:
    """Whether ``node`` is a name or attribute ending in ``suffix``
    (``cache``, ``self.cache``, ``fs._cache`` for ``"cache"``)."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name.lstrip("_").endswith(suffix)


def _check_cache_encapsulation(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if "src/repro/" not in normalized or "repro/cache/" in normalized:
        return
    for node in ast.walk(tree):
        finding = None
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and _receiver_named(node.value, "cache")
        ):
            finding = f"`.{node.attr}` is the block cache's private state"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _CACHE_STATS_FIELDS
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "stats"
                    and _receiver_named(target.value.value, "cache")
                ):
                    finding = (
                        f"assignment to `stats.{target.attr}` of the block cache"
                    )
        if finding and node.lineno not in noqa:
            yield (
                path,
                node.lineno,
                f"CACHE001 {finding}; go through BlockCache's methods "
                "(get, insert, rehit, ...), which keep its counts",
            )


_CLOCK_HOME = "repro/sim/"
"""Where :class:`~repro.sim.clock.SimClock`'s private state may be used.

Time moves only through ``advance``/``advance_to``, and events run
only from ``run``, which moves the clock to each one's due time.  Code
that wrote ``clock._now`` could move time backwards, and code that
touched ``clock._events`` could reorder or lose events.  CLOCK001 flags any single-underscore attribute of a receiver named like
a clock (``clock``, ``self.clock``, ``fs.clock``) in the package outside
``repro/sim``; tests may poke the clock."""


def _check_clock_encapsulation(
    path: str, tree: ast.Module, noqa: Set[int]
) -> Iterator[Tuple[str, int, str]]:
    normalized = path.replace(os.sep, "/")
    if "src/repro/" not in normalized or _CLOCK_HOME in normalized:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and _receiver_named(node.value, "clock")
            and node.lineno not in noqa
        ):
            yield (
                path,
                node.lineno,
                f"CLOCK001 `.{node.attr}` is the simulated clock's private "
                "state; use now(), advance(), advance_to(), call_at() "
                "or run()",
            )


def lint_file(path: str) -> List[Tuple[str, int, str]]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"E999 syntax error: {exc.msg}")]
    noqa = _noqa_lines(source)
    findings = list(_check_unused_imports(path, tree, noqa))
    findings.extend(_check_unused_locals(path, tree, noqa))
    findings.extend(_check_obs_print_bypass(path, tree, noqa))
    findings.extend(_check_obs_registered_names(path, tree, noqa))
    findings.extend(_check_recovery_broad_except(path, tree, noqa))
    findings.extend(_check_chaos_broad_except(path, tree, noqa))
    findings.extend(_check_crashpoint_names(path, tree, noqa))
    findings.extend(_check_service_wall_clock(path, tree, noqa))
    findings.extend(
        _check_hot_path_allocs(path, tree, noqa, _alloc_ok_lines(source))
    )
    findings.extend(_check_rig_builder(path, tree, noqa))
    findings.extend(_check_verifier_independence(path, tree, noqa))
    findings.extend(_check_cache_encapsulation(path, tree, noqa))
    findings.extend(_check_clock_encapsulation(path, tree, noqa))
    return findings


def main(argv: List[str] | None = None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or [
        "src",
        "tests",
        "benchmarks",
    ]
    findings: List[Tuple[str, int, str]] = []
    checked = 0
    for path in _iter_python_files(paths):
        checked += 1
        findings.extend(lint_file(path))
    findings.sort()
    for file_path, lineno, message in findings:
        print(f"{file_path}:{lineno}: {message}")
    print(
        f"{len(findings)} finding(s) in {checked} file(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
