"""The crash campaign's own contract: every seeded trial survives.

The hypothesis test is the PR's core robustness claim — for *any* seed,
a trial either remounts cleanly or reports the damage through typed
channels; it never ends in an unhandled exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import run_campaign, run_trial, validate_trial
from repro.faults.campaign import (
    OUTCOMES,
    CampaignReport,
    SeededTrial,
    TrialResult,
)
from repro.faults.injector import FaultConfig
from repro.harness.parallel import export_telemetry_totals
from repro.obs import Telemetry
from repro.service.config import SERVICE_LFS_CONFIG, ServiceConfig
from repro.service.scheduler import RequestScheduler
from repro.units import MIB

SMALL_TRIAL = dict(device_bytes=16 * MIB)


def crashtest(trials, seed, **options):
    task = dict(seed=seed, **SMALL_TRIAL)
    return run_campaign(
        "crashtest", run_trial, validate_trial, task, trials, **options
    )


class TestTrialContract:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_seed_survives(self, seed):
        result = run_trial(0, seed, **SMALL_TRIAL)
        assert not result.failed, result.detail
        assert result.fired
        assert result.outcome in ("clean", "detected")
        if result.outcome == "detected":
            assert result.signals

    def test_trials_are_deterministic(self):
        first = run_trial(3, seed=7, **SMALL_TRIAL)
        second = run_trial(3, seed=7, **SMALL_TRIAL)
        assert first.outcome == second.outcome
        assert first.signals == second.signals
        assert first.faults == second.faults

    def test_clean_trial_reports_no_signals(self):
        # Find a seed whose trial 0 draws a fault-free config (cheap:
        # replays only the config draw) and check it classifies clean.
        import random

        from repro.faults.campaign import _random_fault_config

        seed = next(
            s
            for s in range(1000)
            if _random_fault_config(random.Random(f"crashtest-{s}-0"))
            == FaultConfig()
        )
        result = run_trial(0, seed, **SMALL_TRIAL)
        assert result.config == FaultConfig()
        assert result.outcome == "clean"
        assert not result.signals


class TestCampaign:
    def test_small_campaign_survives_and_aggregates(self):
        telemetry = Telemetry()
        report = crashtest(8, seed=0, telemetry=telemetry)
        assert not report.failures
        assert len(report.trials) == 8
        assert all(t.outcome in OUTCOMES for t in report.trials)
        # Aggregated totals match the telemetry the injectors shared.
        by_name = {
            m["name"]: m.get("value")
            for m in telemetry.registry.to_dict()["metrics"]
        }
        for kind in ("bit_flips", "torn_writes"):
            total = sum(t.faults[kind] for t in report.trials)
            assert by_name[f"disk.fault.{kind}"] == total
        assert by_name["campaign.trials"] == 8
        assert by_name["campaign.crashes_injected"] == 8
        assert by_name["campaign.contract_checks"] == 0
    def test_render_mentions_survival(self):
        report = crashtest(2, seed=5)
        text = report.render()
        assert text.endswith("verdict: OK")
        assert text.startswith("crashtest: 2 trials, seed 5")

    def test_render_lists_every_failed_trial_whatever_its_campaign(self):
        # One report, one set of lines: an unhandled crashtest trial and
        # a violated chaos trial fail it the same way.
        unhandled = TrialResult(
            3,
            "end-of-workload",
            FaultConfig(),
            fired=True,
            outcome="unhandled",
            detail="KeyError: 7",
        )
        violated = TrialResult(
            4,
            "mid-commit",
            FaultConfig(),
            fired=True,
            outcome="violated",
            detail="2 durability violations after mid-commit",
            violations=["/a: acked state lost", "/b: torn"],
            checks=5,
        )
        clean = TrialResult(5, "mid-clean", FaultConfig(), fired=True)
        report = CampaignReport(
            "mixed", dict(seed=0), [unhandled, clean, violated]
        )
        assert report.failures == [unhandled, violated]
        lines = report.render().splitlines()
        assert "  outcomes: clean 1, detected 0, violated 1, unhandled 1" in lines
        assert "  durability contract: 5 file checks, 2 violations" in lines
        assert "  failed trials: 2" in lines
        failed = lines.index("  failed trials: 2")
        assert lines[failed + 1 : failed + 5] == [
            "    trial 3 [end-of-workload]: KeyError: 7",
            "    trial 4 [mid-commit]: 2 durability violations after mid-commit",
            "      /a: acked state lost",
            "      /b: torn",
        ]
        assert lines[-1] == "verdict: FAILED"

    def test_parallel_campaign_is_byte_identical(self):
        lines_seq, lines_par = [], []
        telemetry_seq, telemetry_par = Telemetry(), Telemetry()
        sequential = crashtest(
            4, seed=11, telemetry=telemetry_seq, log=lines_seq.append, jobs=1
        )
        parallel = crashtest(
            4, seed=11, telemetry=telemetry_par, log=lines_par.append, jobs=2
        )
        assert parallel.render() == sequential.render()
        assert lines_par == lines_seq
        assert [t.signals for t in parallel.trials] == [
            t.signals for t in sequential.trials
        ]
        # Every trial records into its own telemetry and is merged in
        # trial order for any ``jobs``: counters, gauges, histograms and
        # span totals all agree, to the last float bit.
        assert export_telemetry_totals(telemetry_par) == (
            export_telemetry_totals(telemetry_seq)
        )


class TestSeededTrial:
    def test_crash_and_remount_drops_pending_events(self):
        # A power failure mid-run: the crashed scheduler's queued events
        # must not run against the remounted volume.
        class PowerFail(Exception):
            pass

        def power_fail():
            raise PowerFail

        config = ServiceConfig(num_clients=4, requests_per_client=40)
        seeded = SeededTrial(
            "chaos", 0, 0, "mid-clean", lambda rng: FaultConfig(), None
        )
        fs = seeded.boot(32 * MIB, SERVICE_LFS_CONFIG, config).fs
        scheduler = RequestScheduler(fs, config)
        fs.clock.call_at(fs.clock.now() + 0.05, power_fail)
        with pytest.raises(PowerFail):
            scheduler.run()
        assert len(fs.clock._events) > 0
        live = seeded.crash_and_remount()
        assert live.clock is fs.clock
        assert len(live.clock._events) == 0
