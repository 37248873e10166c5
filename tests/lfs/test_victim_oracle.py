"""Victim selection against the sort-filter-slice reference (§4.3.4).

``SegmentCleaner.select_victims`` reads the eligibility query
``SegmentUsage.cleanable`` and picks with a per-policy chooser.  The
reference below is the selection it replaced: filter the sorted dirty
segments, sort them by the policy's key (or shuffle them), take the
first ``count``.  Both are run over random usage states and must agree
call for call, random policy included (two identically seeded RNGs).
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.lfs.cleaner import _CHOOSE, SegmentCleaner
from repro.lfs.config import MAX_LIVE_FRACTION_TO_CLEAN, CleanerPolicy
from repro.lfs.segment_usage import SegmentState, SegmentUsage

BS = 4096
SEG = 16 * BS


def reference_select(usage, policy, rng, now, count, written_before, max_u):
    if max_u is None:
        max_u = MAX_LIVE_FRACTION_TO_CLEAN
    candidates = [
        seg
        for seg in usage.dirty_segments()
        if usage.utilization(seg) <= max_u
        and (
            written_before is None
            or usage.info(seg).last_write < written_before
        )
    ]
    if not candidates:
        return []
    if policy is CleanerPolicy.GREEDY:
        candidates.sort(key=lambda seg: (usage.info(seg).live_bytes, seg))
    elif policy is CleanerPolicy.COST_BENEFIT:

        def benefit(seg):
            u = usage.utilization(seg)
            age = max(0.0, now - usage.info(seg).last_write)
            return (1.0 - u) * age / (1.0 + u)

        candidates.sort(key=lambda seg: (-benefit(seg), seg))
    else:
        rng.shuffle(candidates)
    return candidates[:count]


NUM_SEGMENTS = 256

# Sparse segment numbers (a set of them does not iterate in order), and
# few distinct live counts and write times, so keys tie often.  Segments
# left out stay clean.
segment_states = st.dictionaries(
    st.integers(min_value=0, max_value=NUM_SEGMENTS - 1),
    st.tuples(
        st.sampled_from([SegmentState.DIRTY, *SegmentState]),
        st.integers(min_value=0, max_value=SEG // BS),
        st.sampled_from([0.0, 1.0, 2.5, 4.0]),
    ),
    max_size=40,
)
queries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5, 5.0])),
        st.one_of(
            st.none(),
            st.sampled_from([k * BS / SEG for k in range(SEG // BS + 1)]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    ),
    min_size=1,
    max_size=4,
)


def build_usage(states):
    usage = SegmentUsage(NUM_SEGMENTS, SEG, BS)
    for seg, (state, blocks, last_write) in states.items():
        usage.force_state(seg, state)
        usage.note_write(seg, blocks * BS, last_write)
    return usage


def cleaner_over(usage, policy, now, seed):
    fs = SimpleNamespace(
        usage=usage,
        clock=SimpleNamespace(now=lambda: now),
    )
    cleaner = SegmentCleaner(fs, policy=policy)
    cleaner._rng = random.Random(seed)
    return cleaner


def select(cleaner, count, written_before, max_u):
    kwargs = {}
    if written_before is not None:
        kwargs["written_before"] = written_before
    return cleaner.select_victims(count, max_utilization=max_u, **kwargs)


@settings(max_examples=300, deadline=None)
@given(
    states=segment_states,
    queries=queries,
    policy=st.sampled_from(list(CleanerPolicy)),
    now=st.sampled_from([0.0, 2.0, 10.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_select_victims_matches_reference(states, queries, policy, now, seed):
    usage = build_usage(states)
    cleaner = cleaner_over(usage, policy, now, seed)
    rng = random.Random(seed)
    for count, written_before, max_u in queries:
        expected = reference_select(
            usage, policy, rng, now, count, written_before, max_u
        )
        assert select(cleaner, count, written_before, max_u) == expected


@settings(max_examples=200, deadline=None)
@given(
    states=segment_states,
    count=st.integers(min_value=0, max_value=12),
    policy=st.sampled_from([CleanerPolicy.GREEDY, CleanerPolicy.COST_BENEFIT]),
    now=st.sampled_from([0.0, 2.0, 10.0]),
    data=st.data(),
)
def test_deterministic_choice_ignores_candidate_order(
    states, count, policy, now, data
):
    # Greedy and cost-benefit keys are total orders: ties fall to the
    # segment number, so the choice is the same however the
    # candidates arrive.
    usage = build_usage(states)
    cleaner = cleaner_over(usage, policy, now, 0)
    candidates = data.draw(
        st.permutations(usage.cleanable(MAX_LIVE_FRACTION_TO_CLEAN))
    )
    expected = reference_select(usage, policy, None, now, count, None, None)
    assert _CHOOSE[policy](cleaner, list(candidates), count) == expected
