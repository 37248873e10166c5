"""Crash-under-load chaos campaign."""

from repro.faults import (
    CampaignReport,
    TrialResult,
    run_campaign,
    validate_chaos_rig,
)
from repro.faults.chaos import (
    INSTANTS,
    CrashPlan,
    CrashSignal,
    run_chaos_trial,
)
from repro.faults.injector import FaultConfig
from repro.harness.parallel import export_telemetry_totals
from repro.lfs.filesystem import make_lfs
from repro.obs import Telemetry
from repro.service.scheduler import RequestScheduler
from repro.sim import crashpoints
from repro.units import MIB

# Small-but-real campaign shape used across this module: fast enough
# for tier-1, large enough that every instant actually fires.
SMALL = dict(clients=4, requests_per_client=40)


def chaos(trials, seed, **options):
    task = dict(seed=seed, **SMALL)
    return run_campaign(
        "chaos", run_chaos_trial, validate_chaos_rig, task, trials, **options
    )


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
        assert crashpoints._hook is None

        def run_raises(scheduler):
            assert crashpoints._hook is not None
            raise RuntimeError("scheduler blew up")

        monkeypatch.setattr(RequestScheduler, "run", run_raises)
        result = run_chaos_trial(0, seed=0, **SMALL)
        assert result.outcome == "unhandled"
        assert "scheduler blew up" in result.detail
        assert crashpoints._hook is None


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
        assert result.outcome == "clean", result.detail

    def test_trial_17_segment_its_own_successor(self):
        # Recovery restored next_segment == active_segment (stale chain
        # link and checkpointed pre-selection both pointed at the tail),
        # so the writer wrapped onto its own fresh data.
        result = run_chaos_trial(17, seed=0, clients=8, requests_per_client=80)
        assert result.outcome == "clean", result.detail

    def test_trial_14_stale_checkpoint_next_destroys_live_data(self):
        # The degenerate next-segment fallback trusted the checkpoint's
        # pre-selection, which the applied chain itself had consumed —
        # the resumed writer overwrote live, referenced blocks.
        result = run_chaos_trial(14, seed=0, clients=8, requests_per_client=80)
        assert result.outcome == "clean", result.detail


class TestChaosCampaign:
    def test_small_campaign_passes_and_covers_instants(self):
        report = chaos(4, seed=0)
        assert not report.failures, report.render()
        assert [t.instant for t in report.trials] == list(INSTANTS)
        assert all(t.fired for t in report.trials)
        assert sum(t.checks for t in report.trials) > 0
        assert sum(t.acked_fsyncs for t in report.trials) > 0

    def test_jobs_merge_is_byte_identical(self):
        t1, t2 = Telemetry(), Telemetry()
        r1 = chaos(4, seed=0, telemetry=t1, jobs=1)
        r2 = chaos(4, seed=0, telemetry=t2, jobs=2)
        assert r1.render() == r2.render()
        assert export_telemetry_totals(t1) == export_telemetry_totals(t2)

    def test_report_counts_failures(self):
        report = CampaignReport("chaos", dict(seed=0, clients=1))
        report.trials.append(TrialResult(0, "mid-clean", FaultConfig()))
        report.trials.append(
            TrialResult(
                1,
                "mid-commit",
                FaultConfig(),
                outcome="violated",
                violations=["/f: gone"],
                detail="1 durability violations",
            )
        )
        assert len(report.failures) == 1
        rendered = report.render()
        assert rendered.endswith("verdict: FAILED")
        assert "/f: gone" in rendered
