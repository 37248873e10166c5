"""Crash-under-load chaos campaign and durability-contract checker."""

from repro.faults.chaos import (
    INSTANTS,
    ChaosReport,
    ChaosTrialResult,
    CrashPlan,
    CrashSignal,
    DurabilityLedger,
    run_chaos_campaign,
    run_chaos_trial,
)
from repro.harness.parallel import export_telemetry_totals
from repro.lfs.filesystem import make_lfs
from repro.obs import Telemetry
from repro.service.scheduler import RequestScheduler
from repro.sim import crashpoints
from repro.units import MIB

# Small-but-real campaign shape used across this module: fast enough
# for tier-1, large enough that every instant actually fires.
SMALL = dict(clients=4, requests_per_client=40)


class TestDurabilityLedger:
    def test_create_write_unlink_history(self):
        ledger = DurabilityLedger()
        ledger.note_create("/f", 7)
        ledger.note_write("/f", 0, b"hello")
        ledger.note_write("/f", 5, b" world")
        ledger.note_unlink("/f")
        record = ledger.records["/f"]
        # absent -> empty -> "hello" -> "hello world" -> absent
        assert len(record.states) == 5
        assert record.sizes == [0, 0, 5, 11, 0]
        assert record.states[-1] == "absent"

    def test_sparse_write_zero_fills_the_gap(self):
        ledger = DurabilityLedger()
        ledger.note_create("/f", 1)
        ledger.note_write("/f", 4, b"xy")
        record = ledger.records["/f"]
        assert bytes(record.shadow) == b"\x00\x00\x00\x00xy"

    def test_barrier_advances_every_floor(self):
        ledger = DurabilityLedger()
        ledger.note_create("/a", 1)
        ledger.note_write("/a", 0, b"one")
        ledger.note_create("/b", 2)
        ledger.note_barrier()
        assert ledger.barriers == 1
        for record in ledger.records.values():
            assert record.floor == record.last_index
        ledger.note_write("/a", 0, b"two")
        assert ledger.records["/a"].floor == ledger.records["/a"].last_index - 1

    def test_ack_records_state_index_and_trace_root(self):
        ctx = type("Ctx", (), {"root_id": 42})()
        ledger = DurabilityLedger()
        ledger.note_create("/f", 3)
        ledger.note_write("/f", 0, b"data")
        ledger.note_ack("/f", 3, 1.5, ctx)
        (ack,) = ledger.acks
        assert ack.state_index == ledger.records["/f"].last_index
        assert ack.trace_root == 42
        assert ack.ack_time == 1.5

    def test_check_accepts_any_state_at_or_above_floor(self):
        fs = make_lfs(total_bytes=8 * MIB)
        ledger = DurabilityLedger()
        handle = fs.create("/f")
        ledger.note_create("/f", handle.inum)
        with handle:
            handle.write(b"v1")
        ledger.note_write("/f", 0, b"v1")
        # Ledger moves ahead of the fs: the recorded v2 never lands.
        ledger.note_write("/f", 0, b"v2")
        assert ledger.check(fs) == []  # v1 is >= floor 0: admissible
        violations = ledger.check(fs, require_latest=True)
        assert len(violations) == 1
        assert "/f" in violations[0]
        fs.unmount()

    def test_check_rejects_state_below_the_floor(self):
        fs = make_lfs(total_bytes=8 * MIB)
        ledger = DurabilityLedger()
        handle = fs.create("/f")
        ledger.note_create("/f", handle.inum)
        with handle:
            handle.write(b"old")
        ledger.note_write("/f", 0, b"old")
        ledger.note_write("/f", 0, b"new")
        ledger.note_barrier()  # "new" is now promised durable
        violations = ledger.check(fs)  # fs still holds "old"
        assert len(violations) == 1
        assert "floor" in violations[0]
        fs.unmount()

    def test_reconcile_restarts_history_at_observed_state(self):
        fs = make_lfs(total_bytes=8 * MIB)
        ledger = DurabilityLedger()
        handle = fs.create("/f")
        ledger.note_create("/f", handle.inum)
        with handle:
            handle.write(b"kept")
        ledger.note_write("/f", 0, b"kept")
        ledger.note_write("/f", 0, b"lost")
        ledger.note_create("/gone", 99)  # never reached the fs
        ledger.reconcile(fs)
        assert ledger.check(fs, require_latest=True) == []
        assert ledger.records["/gone"].states == ["absent"]
        assert ledger.records["/f"].floor == 0
        fs.unmount()


class TestCrashPlan:
    def test_rejects_unknown_instant(self):
        import random

        import pytest

        fs = make_lfs(total_bytes=8 * MIB)
        with pytest.raises(ValueError):
            CrashPlan("mid-everything", random.Random(0), fs)
        fs.unmount()

    def test_fire_raises_crash_signal_and_marks_fired(self):
        import random

        import pytest

        fs = make_lfs(total_bytes=8 * MIB)
        plan = CrashPlan("mid-clean", random.Random(0), fs)
        with pytest.raises(CrashSignal):
            for segment in range(plan.target):
                plan("cleaner.relocate", segment)
        assert plan.fired
        assert plan.fired_detail == (
            f"mid-clean: relocation #{plan.target} "
            f"(segment {plan.target - 1})"
        )
        plan("cleaner.relocate", 99)  # fires once: later passes are inert
        fs.unmount()

    def test_no_hook_is_armed_after_a_trial(self, monkeypatch):
        # The remount and the resumed run must see an unarmed stack,
        # whether the crash fired or the body raised while armed.
        assert run_chaos_trial(0, seed=0, **SMALL).fired
        assert not crashpoints.is_armed()

        def run_raises(scheduler):
            assert crashpoints.is_armed()
            raise RuntimeError("scheduler blew up")

        monkeypatch.setattr(RequestScheduler, "run", run_raises)
        result = run_chaos_trial(0, seed=0, **SMALL)
        assert result.outcome == "unhandled"
        assert "scheduler blew up" in result.detail
        assert not crashpoints.is_armed()


class TestChaosTrial:
    def test_trial_is_deterministic(self):
        a = run_chaos_trial(0, seed=7, **SMALL)
        b = run_chaos_trial(0, seed=7, **SMALL)
        assert a == b

    def test_instant_rotation_covers_all_four(self):
        assert [
            run_chaos_trial(t, seed=0, **SMALL).instant for t in range(4)
        ] == list(INSTANTS)

    # Pinned regressions: these exact trials each exposed a recovery
    # bug when the campaign first ran (see repro.lfs.recovery).
    def test_trial_2_tail_account_double_count(self):
        # Roll-forward re-added replayed partials' bytes to the tail
        # segment's live account; the resumed writer then tripped the
        # live <= capacity invariant.  Fixed by clamp_live.
        result = run_chaos_trial(2, seed=0, clients=8, requests_per_client=80)
        assert result.outcome == "passed", result.detail

    def test_trial_17_segment_its_own_successor(self):
        # Recovery restored next_segment == active_segment (stale chain
        # link and checkpointed pre-selection both pointed at the tail),
        # so the writer wrapped onto its own fresh data.
        result = run_chaos_trial(17, seed=0, clients=8, requests_per_client=80)
        assert result.outcome == "passed", result.detail

    def test_trial_14_stale_checkpoint_next_destroys_live_data(self):
        # The degenerate next-segment fallback trusted the checkpoint's
        # pre-selection, which the applied chain itself had consumed —
        # the resumed writer overwrote live, referenced blocks.
        result = run_chaos_trial(14, seed=0, clients=8, requests_per_client=80)
        assert result.outcome == "passed", result.detail


class TestChaosCampaign:
    def test_small_campaign_passes_and_covers_instants(self):
        report = run_chaos_campaign(trials=4, seed=0, **SMALL)
        assert report.passed_all, report.render()
        assert report.instants_covered
        assert all(t.fired for t in report.trials)
        assert sum(t.checks for t in report.trials) > 0
        assert sum(t.acked_fsyncs for t in report.trials) > 0

    def test_jobs_merge_is_byte_identical(self):
        t1, t2 = Telemetry(), Telemetry()
        r1 = run_chaos_campaign(trials=4, seed=0, telemetry=t1, jobs=1, **SMALL)
        r2 = run_chaos_campaign(trials=4, seed=0, telemetry=t2, jobs=2, **SMALL)
        assert r1.render() == r2.render()
        assert export_telemetry_totals(t1) == export_telemetry_totals(t2)

    def test_report_counts_failures(self):
        report = ChaosReport(seed=0, clients=1)
        report.trials.append(ChaosTrialResult(trial=0, instant="mid-clean"))
        report.trials.append(
            ChaosTrialResult(
                trial=1,
                instant="mid-commit",
                outcome="violated",
                violations=["/f: gone"],
                detail="1 durability violations",
            )
        )
        assert not report.passed_all
        assert len(report.failures) == 1
        rendered = report.render()
        assert "durability: VIOLATED" in rendered
        assert "/f: gone" in rendered
