"""Tests for the dependency-free linter, focused on the OBS001 rule:
telemetry-instrumented modules must not bypass the registry with bare
``print``."""

from __future__ import annotations

import os

from repro.tools.lint import lint_file, main


def write_module(tmp_path, relpath: str, source: str) -> str:
    path = tmp_path / relpath
    os.makedirs(path.parent, exist_ok=True)
    path.write_text(source)
    return str(path)


INSTRUMENTED = """\
from repro.obs import Telemetry

def report(telemetry: Telemetry) -> None:
    print("cleaned 5 segments")
"""


class TestObsPrintBypass:
    def test_flags_print_in_instrumented_lfs_module(self, tmp_path):
        path = write_module(tmp_path, "repro/lfs/cleaner_ext.py", INSTRUMENTED)
        findings = lint_file(path)
        assert any("OBS001" in message for _, _, message in findings)

    def test_flags_print_in_instrumented_cache_module(self, tmp_path):
        path = write_module(tmp_path, "repro/cache/extra.py", INSTRUMENTED)
        findings = lint_file(path)
        assert any("OBS001" in message for _, _, message in findings)

    def test_ignores_module_that_does_not_import_obs(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/lfs/plain.py",
            'def debug():\n    print("not instrumented")\n',
        )
        assert not any("OBS001" in m for _, _, m in lint_file(path))

    def test_ignores_print_outside_instrumented_dirs(self, tmp_path):
        path = write_module(tmp_path, "repro/tools/cli_ext.py", INSTRUMENTED)
        assert not any("OBS001" in m for _, _, m in lint_file(path))

    def test_submodule_import_counts_as_instrumented(self, tmp_path):
        source = (
            "from repro.obs.registry import MetricsRegistry\n"
            'print("boot")\n'
        )
        path = write_module(tmp_path, "repro/lfs/booted.py", source)
        assert any("OBS001" in m for _, _, m in lint_file(path))

    def test_noqa_suppresses_the_finding(self, tmp_path):
        source = (
            "from repro.obs import Telemetry\n"
            'print("intentional")  # noqa\n'
        )
        path = write_module(tmp_path, "repro/lfs/waived.py", source)
        assert not any("OBS001" in m for _, _, m in lint_file(path))


BROAD_EXCEPT = """\
def load():
    try:
        return parse()
    except Exception:
        return None
"""


class TestRecoveryBroadExcept:
    def test_flags_except_exception_in_recovery(self, tmp_path):
        path = write_module(tmp_path, "repro/lfs/recovery.py", BROAD_EXCEPT)
        assert any("FAULT001" in m for _, _, m in lint_file(path))

    def test_flags_bare_except_in_checkpoint(self, tmp_path):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        path = write_module(tmp_path, "repro/lfs/checkpoint.py", source)
        assert any("FAULT001" in m for _, _, m in lint_file(path))

    def test_flags_broad_member_of_tuple(self, tmp_path):
        source = (
            "try:\n"
            "    x = 1\n"
            "except (ValueError, BaseException):\n"
            "    pass\n"
        )
        path = write_module(tmp_path, "repro/lfs/recovery.py", source)
        assert any("FAULT001" in m for _, _, m in lint_file(path))

    def test_typed_except_is_fine(self, tmp_path):
        source = (
            "from repro.errors import CorruptionError\n"
            "try:\n"
            "    x = 1\n"
            "except (CorruptionError, ValueError):\n"
            "    pass\n"
        )
        path = write_module(tmp_path, "repro/lfs/recovery.py", source)
        assert not any("FAULT001" in m for _, _, m in lint_file(path))

    def test_other_modules_may_catch_broadly(self, tmp_path):
        path = write_module(tmp_path, "repro/faults/campaign.py", BROAD_EXCEPT)
        assert not any("FAULT001" in m for _, _, m in lint_file(path))

    def test_noqa_suppresses_the_finding(self, tmp_path):
        source = (
            "try:\n"
            "    x = 1\n"
            "except Exception:  # noqa\n"
            "    pass\n"
        )
        path = write_module(tmp_path, "repro/lfs/recovery.py", source)
        assert not any("FAULT001" in m for _, _, m in lint_file(path))


class TestChaosBroadExcept:
    # FAULT002: the crash-under-load modules must keep injected
    # crashes (CrashSignal) distinguishable from real defects, so a
    # broad handler that would swallow both is banned.

    def test_flags_except_exception_in_chaos(self, tmp_path):
        path = write_module(tmp_path, "repro/faults/chaos.py", BROAD_EXCEPT)
        assert any("FAULT002" in m for _, _, m in lint_file(path))

    def test_flags_bare_except_in_scheduler(self, tmp_path):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        path = write_module(tmp_path, "repro/service/scheduler.py", source)
        assert any("FAULT002" in m for _, _, m in lint_file(path))

    def test_typed_except_is_fine(self, tmp_path):
        source = (
            "from repro.errors import ReproError\n"
            "try:\n"
            "    x = 1\n"
            "except ReproError:\n"
            "    pass\n"
        )
        path = write_module(tmp_path, "repro/faults/chaos.py", source)
        assert not any("FAULT002" in m for _, _, m in lint_file(path))

    def test_flags_except_exception_in_the_model(self, tmp_path):
        path = write_module(tmp_path, "repro/faults/model.py", BROAD_EXCEPT)
        assert any("FAULT002" in m for _, _, m in lint_file(path))

    def test_typed_except_in_the_model_is_fine(self, tmp_path):
        source = (
            "from repro.errors import FileNotFoundError_\n"
            "try:\n"
            "    x = 1\n"
            "except FileNotFoundError_:\n"
            "    pass\n"
        )
        path = write_module(tmp_path, "repro/faults/model.py", source)
        assert not any("FAULT002" in m for _, _, m in lint_file(path))

    def test_flags_except_exception_in_the_campaign_runner(self, tmp_path):
        path = write_module(tmp_path, "repro/faults/campaign.py", BROAD_EXCEPT)
        assert any("FAULT002" in m for _, _, m in lint_file(path))

    def test_other_modules_unaffected(self, tmp_path):
        path = write_module(tmp_path, "repro/faults/injector.py", BROAD_EXCEPT)
        assert not any("FAULT002" in m for _, _, m in lint_file(path))

    def test_noqa_suppresses_the_finding(self, tmp_path):
        source = (
            "try:\n"
            "    x = 1\n"
            "except Exception:  # noqa: FAULT002\n"
            "    pass\n"
        )
        path = write_module(tmp_path, "repro/faults/chaos.py", source)
        assert not any("FAULT002" in m for _, _, m in lint_file(path))


class TestCrashpointNames:
    # FAULT003: every crashpoint() call names a table entry literally,
    # so no crash plan can be left arming a point the stack never hits.
    def _findings(self, tmp_path, call):
        source = (
            "from repro.sim.crashpoints import crashpoint\n"
            "from repro.sim import crashpoints\n"
            f"{call}\n"
        )
        path = write_module(tmp_path, "repro/lfs/ext.py", source)
        return [m for _, _, m in lint_file(path) if "FAULT003" in m]

    def test_registered_literal_is_fine(self, tmp_path):
        assert not self._findings(tmp_path, 'crashpoint("disk.write", 7)')

    def test_flags_unregistered_name(self, tmp_path):
        assert self._findings(tmp_path, 'crashpoint("disk.wrte")')

    def test_flags_computed_name(self, tmp_path):
        assert self._findings(tmp_path, 'crashpoint("disk." + "write")')

    def test_flags_missing_name_through_the_module(self, tmp_path):
        assert self._findings(tmp_path, "crashpoints.crashpoint()")

    def test_noqa_suppresses_the_finding(self, tmp_path):
        call = 'crashpoint("bogus")  # noqa: FAULT003'
        assert not self._findings(tmp_path, call)


class TestRepoIsClean:
    def test_src_tests_benchmarks_lint_clean(self, capsys):
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        paths = [
            os.path.join(repo_root, name)
            for name in ("src", "tests", "benchmarks")
        ]
        assert main(paths) == 0


class TestServiceWallClock:
    def test_flags_time_time_call(self, tmp_path):
        source = "import time\n\ndef now():\n    return time.time()\n"
        path = write_module(tmp_path, "repro/service/ext.py", source)
        assert any("SVC001" in m for _, _, m in lint_file(path))

    def test_flags_time_sleep_call(self, tmp_path):
        source = "import time\n\ndef backoff():\n    time.sleep(0.1)\n"
        path = write_module(tmp_path, "repro/service/ext.py", source)
        assert any("SVC001" in m for _, _, m in lint_file(path))

    def test_flags_from_time_import(self, tmp_path):
        source = "from time import sleep\n"
        path = write_module(tmp_path, "repro/service/ext.py", source)
        assert any("SVC001" in m for _, _, m in lint_file(path))

    def test_flags_wall_clock_in_cluster_layer(self, tmp_path):
        source = "import time\n\ndef now():\n    return time.time()\n"
        path = write_module(tmp_path, "repro/cluster/ext.py", source)
        assert any("SVC001" in m for _, _, m in lint_file(path))

    def test_ignores_wall_clock_outside_service(self, tmp_path):
        source = "import time\n\ndef now():\n    return time.time()\n"
        path = write_module(tmp_path, "repro/harness/ext.py", source)
        assert not any("SVC001" in m for _, _, m in lint_file(path))

    def test_ignores_simulated_time_use(self, tmp_path):
        source = (
            "def schedule(clock, fn):\n"
            "    clock.call_at(clock.now() + 1.0, fn)\n"
        )
        path = write_module(tmp_path, "repro/service/ok.py", source)
        assert not any("SVC001" in m for _, _, m in lint_file(path))

    def test_noqa_suppresses_the_finding(self, tmp_path):
        source = "import time\n\nboot = time.time()  # noqa\n"
        path = write_module(tmp_path, "repro/service/ext.py", source)
        assert not any("SVC001" in m for _, _, m in lint_file(path))


class TestHotPathAllocs:
    def test_flags_bytes_copy_in_disk_module(self, tmp_path):
        source = "def snap(view):\n    return bytes(view)\n"
        path = write_module(tmp_path, "repro/disk/ext.py", source)
        assert any("ALLOC001" in m for _, _, m in lint_file(path))

    def test_flags_join_in_segment_writer(self, tmp_path):
        source = "def assemble(parts):\n    return b''.join(parts)\n"
        path = write_module(tmp_path, "repro/lfs/segments.py", source)
        assert any("ALLOC001" in m for _, _, m in lint_file(path))

    def test_empty_bytes_constructor_is_fine(self, tmp_path):
        source = "def zeros(n):\n    return bytes(n) * 0 or bytes()\n"
        path = write_module(tmp_path, "repro/lfs/other.py", source)
        assert not any("ALLOC001" in m for _, _, m in lint_file(path))

    def test_ignores_copies_outside_hot_paths(self, tmp_path):
        source = "def snap(view):\n    return bytes(view)\n"
        path = write_module(tmp_path, "repro/cache/ext.py", source)
        assert not any("ALLOC001" in m for _, _, m in lint_file(path))

    def test_alloc_ok_comment_suppresses_the_finding(self, tmp_path):
        source = (
            "def undo(view):\n"
            "    return bytes(view)  # alloc-ok: crash snapshot\n"
        )
        path = write_module(tmp_path, "repro/disk/ext.py", source)
        assert not any("ALLOC001" in m for _, _, m in lint_file(path))

    def test_multiline_call_needs_marker_on_first_line(self, tmp_path):
        source = (
            "def undo(view):\n"
            "    return bytes(  # alloc-ok: snapshot\n"
            "        view\n"
            "    )\n"
        )
        path = write_module(tmp_path, "repro/disk/ext.py", source)
        assert not any("ALLOC001" in m for _, _, m in lint_file(path))


class TestObsRegisteredNames:
    def test_flags_unregistered_counter_name(self, tmp_path):
        source = (
            "def hook(obs):\n"
            "    obs.counter('wamp.user_byte').inc(1)\n"
        )
        path = write_module(tmp_path, "repro/lfs/ext.py", source)
        findings = [m for _, _, m in lint_file(path) if "OBS002" in m]
        assert findings and "METRIC_NAMES" in findings[0]

    def test_flags_unregistered_span_kind(self, tmp_path):
        source = (
            "def hook(obs):\n"
            "    with obs.span('cleaner.unheard_of'):\n"
            "        pass\n"
        )
        path = write_module(tmp_path, "repro/service/ext.py", source)
        findings = [m for _, _, m in lint_file(path) if "OBS002" in m]
        assert findings and "SPAN_KINDS" in findings[0]

    def test_flags_unregistered_tracer_begin(self, tmp_path):
        source = (
            "def hook(tracer):\n"
            "    return tracer.begin('disk.readd')\n"
        )
        path = write_module(tmp_path, "repro/disk/ext.py", source)
        assert any("OBS002" in m for _, _, m in lint_file(path))

    def test_registered_names_pass(self, tmp_path):
        source = (
            "def hook(obs, tracer):\n"
            "    obs.counter('wamp.user_bytes').inc(1)\n"
            "    obs.gauge('cache.dirty_bytes').add(1)\n"
            "    with obs.span('fs.write'):\n"
            "        tracer.begin('disk.read')\n"
        )
        path = write_module(tmp_path, "repro/vfs/ext.py", source)
        assert not any("OBS002" in m for _, _, m in lint_file(path))

    def test_ignores_modules_outside_instrumented_dirs(self, tmp_path):
        source = (
            "def hook(obs):\n"
            "    obs.counter('totally.unregistered').inc(1)\n"
        )
        path = write_module(tmp_path, "repro/tools/ext.py", source)
        assert not any("OBS002" in m for _, _, m in lint_file(path))

    def test_dynamic_names_are_not_decidable_and_skipped(self, tmp_path):
        source = (
            "def hook(obs, name):\n"
            "    obs.counter(name).inc(1)\n"
        )
        path = write_module(tmp_path, "repro/lfs/ext.py", source)
        assert not any("OBS002" in m for _, _, m in lint_file(path))

    def test_noqa_suppresses_the_finding(self, tmp_path):
        source = (
            "def hook(obs):\n"
            "    obs.counter('scratch.series').inc(1)  # noqa: OBS002\n"
        )
        path = write_module(tmp_path, "repro/lfs/ext.py", source)
        assert not any("OBS002" in m for _, _, m in lint_file(path))


class TestRigBuilder:
    SOURCE = (
        "from repro.disk.sim_disk import SimDisk\n"
        "def boot(geometry, clock):\n"
        "    return SimDisk(geometry, clock)\n"
    )

    def test_flags_hand_built_disk_in_the_package(self, tmp_path):
        path = write_module(tmp_path, "src/repro/cluster/ext.py", self.SOURCE)
        findings = [m for _, _, m in lint_file(path) if "RIG001" in m]
        assert findings and "new_rig" in findings[0]

    def test_builder_and_disk_package_may_construct_it(self, tmp_path):
        for relpath in ("src/repro/rig.py", "src/repro/disk/ext.py"):
            path = write_module(tmp_path, relpath, self.SOURCE)
            assert not any("RIG001" in m for _, _, m in lint_file(path))


class TestVerifierIndependence:
    def ver001(self, tmp_path, relpath, source):
        path = write_module(tmp_path, relpath, source)
        return [(n, m) for _, n, m in lint_file(path) if "VER001" in m]

    def test_flags_the_structures_the_verifier_checks(self, tmp_path):
        source = (
            "import repro.lfs.cleaner as cleaner\n"
            "from repro.lfs.inode_map import IMAP_ENTRY_SIZE, InodeMap\n"
            "from repro.lfs.recovery import roll_forward\n"
            "def walk(device):\n"
            "    return InodeMap(8, IMAP_ENTRY_SIZE), cleaner.SegmentCleaner\n"
        )
        findings = self.ver001(tmp_path, "src/repro/lfs/verify.py", source)
        assert [n for n, _ in findings] == [2, 3, 5]
        assert "`InodeMap`" in findings[0][1] and "oracle" in findings[0][1]

    def test_codecs_constants_and_other_modules_are_free(self, tmp_path):
        allowed = (
            "from repro.lfs.filesystem import SuperBlock\n"
            "from repro.lfs.inode_map import IMAP_ENTRY_SIZE\n"
            "from repro.lfs.segment_usage import SegmentUsage\n"
        )
        assert not self.ver001(tmp_path, "src/repro/lfs/verify.py", allowed)
        banned = "from repro.lfs.filesystem import LogStructuredFS  # noqa\n"
        assert not self.ver001(tmp_path, "src/repro/lfs/verify.py", banned)
        banned = "from repro.lfs.filesystem import LogStructuredFS\n"
        assert not self.ver001(tmp_path, "src/repro/lfs/cleaner.py", banned)
        assert self.ver001(tmp_path, "src/repro/lfs/verify.py", banned)

    def test_the_shipped_verifier_is_clean(self):
        import repro.lfs.verify as verify

        assert not any("VER001" in m for _, _, m in lint_file(verify.__file__))


class TestCacheEncapsulation:
    SOURCE = (
        "def account(fs, keys, rounds):\n"
        "    fs.cache.stats.hits += rounds * len(keys)\n"
        "    for key in keys:\n"
        "        fs.cache._blocks[key].stamp = fs.cache._next_stamp()\n"
        "    cache = fs.cache\n"
        "    cache.stats.misses = 0\n"
        "    if cache._obs_enabled:\n"
        "        cache._m_hits.inc(rounds)\n"
    )

    def cache001(self, tmp_path, relpath, source):
        path = write_module(tmp_path, relpath, source)
        return sorted((n, m) for _, n, m in lint_file(path) if "CACHE001" in m)

    def test_flags_private_state_and_stats_writes(self, tmp_path):
        findings = self.cache001(tmp_path, "src/repro/lfs/ext.py", self.SOURCE)
        assert [n for n, _ in findings] == [2, 4, 4, 6, 7, 8]
        messages = dict(findings)
        assert "`stats.hits`" in messages[2]
        assert "`._blocks`" in findings[1][1] or "`._blocks`" in findings[2][1]
        assert "rehit" in messages[4]

    def test_the_cache_package_and_tests_are_free(self, tmp_path):
        for relpath in ("src/repro/cache/ext.py", "tests/cache/test_ext.py"):
            assert not self.cache001(tmp_path, relpath, self.SOURCE)

    def test_public_calls_reads_and_other_private_state_are_fine(self, tmp_path):
        source = (
            "def walk(fs, keys):\n"
            "    fs.cache.rehit(keys, 2)\n"
            "    hits = fs.cache.stats.hits\n"
            "    fs._stats.read_calls += 1\n"
            "    block = fs.imap._blocks[0]\n"
            "    fs.cache.stats.hits += 1  # noqa: CACHE001\n"
            "    return hits, block\n"
        )
        assert not self.cache001(tmp_path, "src/repro/vfs/ext.py", source)


class TestClockEncapsulation:
    SOURCE = (
        "def charge(fs, cpu, seconds):\n"
        "    if not fs.clock._expiry_heap:\n"
        "        fs.clock._now += seconds\n"
        "    clock = cpu.clock\n"
        "    return clock._now, clock._buckets, self._clock._ntimers\n"
    )

    def clock001(self, tmp_path, relpath, source):
        path = write_module(tmp_path, relpath, source)
        return sorted((n, m) for _, n, m in lint_file(path) if "CLOCK001" in m)

    def test_flags_reads_and_writes_of_private_state(self, tmp_path):
        findings = self.clock001(tmp_path, "src/repro/cache/ext.py", self.SOURCE)
        assert [n for n, _ in findings] == [2, 3, 5, 5, 5]
        assert "`._expiry_heap`" in findings[0][1]
        assert "`._now`" in findings[1][1]
        assert "advance()" in findings[1][1]

    def test_the_sim_package_and_tests_are_free(self, tmp_path):
        for relpath in ("src/repro/sim/ext.py", "tests/sim/test_ext.py"):
            assert not self.clock001(tmp_path, relpath, self.SOURCE)

    def test_public_calls_and_other_private_state_are_fine(self, tmp_path):
        source = (
            "def tick(fs, cpu, seconds):\n"
            "    now = fs.clock.now()\n"
            "    cpu.clock.advance(seconds)\n"
            "    fs._clocked = fs.cache._now_ish = now\n"
            "    fs.clock._now = now  # noqa: CLOCK001\n"
            "    return fs.clock.run(), fs._clock_hand\n"
        )
        assert not self.clock001(tmp_path, "src/repro/vfs/ext.py", source)

    def test_the_shipped_package_is_clean(self):
        import repro

        package = os.path.dirname(repro.__file__)
        files = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(package)
            for name in names
            if name.endswith(".py")
        ]
        assert files
        assert not [
            finding
            for path in files
            for finding in lint_file(path)
            if "CLOCK001" in finding[2]
        ]
