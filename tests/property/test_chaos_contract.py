"""Property test: the durability contract survives any crash instant.

One chaos trial is a full service rig crashed at an adversarial
instant, remounted, rolled forward, and audited against the
ModelFS.  The contract is universal — no choice of seed,
crash instant, or client count may produce a trial where an acked
byte is lost or a torn client-visible state survives remount — so it
is stated as a property over those inputs rather than as a handful of
pinned examples (the pinned regressions live in tests/faults).

Each example boots, crashes, and recovers a whole filesystem, so the
example budget is deliberately small; the nightly campaign
(`repro chaos`) provides volume.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import run_chaos_trial


class TestDurabilityContractProperty:
    @given(
        seed=st.integers(0, 2**16 - 1),
        trial=st.integers(0, 63),  # trial % 4 picks the crash instant
        clients=st.integers(1, 8),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_crash_instant_preserves_acked_state(
        self, seed, trial, clients
    ):
        result = run_chaos_trial(
            trial,
            seed=seed,
            clients=clients,
            requests_per_client=30,
        )
        assert result.outcome == "clean", (
            f"seed={seed} trial={trial} instant={result.instant} "
            f"clients={clients}: {result.detail} {result.violations}"
        )
