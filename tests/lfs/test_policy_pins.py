"""Every victim-selection policy, pinned end to end.

The e2e workloads all run the default policy, cost-benefit, so without
this file a change to greedy or random selection would go unnoticed.
The cleaning-policy ablation (office churn on a 32 MiB volume, one run per
policy) is run at its defaults; every ``select_victims`` result is
recorded, and each policy's sequence of victim lists is pinned by md5
beside the ablation's own numbers.
"""

import hashlib

from repro.harness import ablation_cleaner_policy
from repro.harness.experiments import PolicyPoint
from repro.lfs.cleaner import SegmentCleaner

VICTIMS = {
    "greedy": (48, "45155ef34d3b832e9211caa37c164863"),
    "cost-benefit": (48, "45155ef34d3b832e9211caa37c164863"),
    "random": (53, "b7ab3e3b05d6906a4986db37fedadd9e"),
}

POINTS = [
    PolicyPoint(
        policy="greedy",
        write_cost=1.0404345334229677,
        segments_cleaned=192,
        live_blocks_copied=0,
        ops_per_second=47.61875907612381,
    ),
    PolicyPoint(
        policy="cost-benefit",
        write_cost=1.0404345334229677,
        segments_cleaned=192,
        live_blocks_copied=0,
        ops_per_second=47.61875907612381,
    ),
    PolicyPoint(
        policy="random",
        write_cost=1.0913793124230284,
        segments_cleaned=212,
        live_blocks_copied=867,
        ops_per_second=43.866861012854244,
    ),
]


def test_ablation_victims_and_points_are_pinned(monkeypatch):
    calls = {}
    select = SegmentCleaner.select_victims

    def recording(self, *args, **kwargs):
        victims = select(self, *args, **kwargs)
        calls.setdefault(self.policy.value, []).append(tuple(victims))
        return victims

    monkeypatch.setattr(SegmentCleaner, "select_victims", recording)
    points = ablation_cleaner_policy()
    seen = {
        policy: (len(lists), hashlib.md5(repr(lists).encode()).hexdigest())
        for policy, lists in calls.items()
    }
    assert seen == VICTIMS
    assert points == POINTS
