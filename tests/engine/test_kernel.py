"""Unit tests for the discrete-event kernel (repro.engine).

The kernel's contract is deterministic ordering: events dispatch in
``(time, tier, seq)`` order, and named RNG streams reproduce the legacy
closure-counter seed derivation byte-for-byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    TIER_ARRIVAL,
    TIER_COMPLETION,
    Clock,
    EventScheduler,
    RngStreams,
    SerialResource,
)


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clock = Clock()
        assert clock.now == 0.0
        assert clock.advance_to(2.5) == 2.5
        assert clock.now == 2.5

    def test_advancing_to_now_is_a_noop(self):
        clock = Clock(start=1.0)
        clock.advance_to(1.0)
        assert clock.now == 1.0

    def test_backwards_raises(self):
        clock = Clock()
        clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.999)

    def test_nan_raises(self):
        # A NaN clock would make every later comparison false.
        clock = Clock(start=1.0)
        with pytest.raises(ValueError):
            clock.advance_to(math.nan)
        assert clock.now == 1.0


class TestSerialResource:
    def test_work_at_idle_starts_immediately(self):
        cpu = SerialResource()
        assert cpu.start_time(3.0) == 3.0
        assert cpu.free_at == 0.0

    def test_work_queues_behind_busy_horizon(self):
        cpu = SerialResource()
        cpu.occupy_until(4.0)
        assert cpu.start_time(1.0) == 4.0
        assert cpu.start_time(5.0) == 5.0
        assert cpu.free_at == 4.0

    def test_occupy_until_never_moves_backwards(self):
        cpu = SerialResource()
        cpu.occupy_until(10.0)
        cpu.occupy_until(7.0)
        assert cpu.free_at == 10.0

    def test_stall_matches_injector_semantics(self):
        # The fault injector's CPU stall: max(free_at, at_time) + duration.
        cpu = SerialResource()
        cpu.stall(2.0, duration=1.0)
        assert cpu.free_at == 3.0
        cpu.stall(1.0, duration=0.5)  # already busy past 1.0
        assert cpu.free_at == 3.5


class TestEventScheduler:
    def test_time_order(self):
        scheduler = EventScheduler()
        scheduler.schedule(3.0, "c")
        scheduler.schedule(1.0, "a")
        scheduler.schedule(2.0, "b")
        assert [scheduler.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_same_time_ties_break_by_scheduling_order(self):
        # The legacy simulator heap was (time, seq, ...): same-instant
        # events fire in the order they were scheduled.
        scheduler = EventScheduler()
        for index in range(10):
            scheduler.schedule(1.0, f"event-{index}")
        assert [scheduler.pop().kind for _ in range(10)] == [
            f"event-{index}" for index in range(10)
        ]

    def test_completion_tier_beats_same_time_default(self):
        # Same-instant order is completion, then arrival, then the rest.
        scheduler = EventScheduler()
        scheduler.schedule(1.0, "epoch")
        scheduler.schedule(1.0, "arrive", tier=TIER_ARRIVAL)
        scheduler.schedule(1.0, "complete", tier=TIER_COMPLETION)
        assert scheduler.pop().kind == "complete"
        assert scheduler.pop().kind == "arrive"
        assert scheduler.pop().kind == "epoch"

    def test_scheduling_into_the_past_raises(self):
        scheduler = EventScheduler()
        scheduler.clock.advance_to(5.0)
        with pytest.raises(ValueError):
            scheduler.schedule(4.0, "late")
        scheduler.schedule(5.0, "now-is-fine")

    def test_scheduling_at_nan_raises(self):
        # A NaN event compares false against everything and would break
        # heap order silently.
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(math.nan, "broken")
        assert len(scheduler) == 0

    def test_peek_pop_next_time_pending(self):
        scheduler = EventScheduler()
        assert scheduler.peek() is None
        assert math.isinf(scheduler.next_time())
        assert not scheduler
        scheduler.schedule(2.0, "x", payload=("p",))
        assert scheduler.peek().kind == "x"
        assert scheduler.next_time() == 2.0
        assert scheduler.pending(("x", "y"))
        assert not scheduler.pending(("y",))
        event = scheduler.pop()
        assert event.payload == ("p",)
        assert len(scheduler) == 0

    def test_pop_does_not_advance_clock(self):
        scheduler = EventScheduler()
        scheduler.schedule(2.0, "x")
        scheduler.pop()
        assert scheduler.clock.now == 0.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["switch-a", "switch-b"]),
                st.floats(
                    min_value=0.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=40,
        )
    )
    def test_interleaving_two_timelines_never_reorders_ties(self, entries):
        # Two switch timelines scheduled into one kernel queue: events
        # come out time-sorted, and same-timestamp events preserve
        # scheduling order regardless of which timeline they belong to.
        scheduler = EventScheduler()
        for index, (switch, time) in enumerate(entries):
            scheduler.schedule(time, switch, payload=index)
        popped = [scheduler.pop() for _ in range(len(entries))]
        assert [e.time for e in popped] == sorted(e.time for e in popped)
        for first, second in zip(popped, popped[1:]):
            if first.time == second.time:
                assert first.payload < second.payload


def _dispatch_order(insertion_order, tiers):
    """Dispatch same-instant events inserted in ``insertion_order``."""
    scheduler = EventScheduler()
    for ident in insertion_order:
        scheduler.schedule(1.0, f"event-{ident}", payload=ident, tier=tiers[ident])
    return [scheduler.pop().payload for _ in insertion_order]


_TIE_N = 6


class TestTieBreakInvariance:
    """What the seq tie-break does and does not decide.

    Cross-tier order is part of the model: permuting insertion never
    changes it.  Same-tier order is *only* the tie-break: it tracks
    insertion order exactly, which is why two same-``(time, tier)``
    events with conflicting accesses are a schedule-order race — the
    hazard the sanitizer (:mod:`repro.analysis.races`) reports, and the
    planted-race fixture under ``tests/analysis/fixtures/`` exercises.
    """

    @given(
        tiers=st.lists(
            st.sampled_from([TIER_COMPLETION, 1]),
            min_size=_TIE_N,
            max_size=_TIE_N,
        ),
        permuted=st.permutations(list(range(_TIE_N))),
    )
    def test_cross_tier_order_never_depends_on_insertion(self, tiers, permuted):
        baseline = _dispatch_order(list(range(_TIE_N)), tiers)
        shuffled = _dispatch_order(permuted, tiers)
        position_b = {ident: i for i, ident in enumerate(baseline)}
        position_s = {ident: i for i, ident in enumerate(shuffled)}
        for a in range(_TIE_N):
            for b in range(a + 1, _TIE_N):
                if tiers[a] != tiers[b]:
                    assert (position_b[a] < position_b[b]) == (
                        position_s[a] < position_s[b]
                    )

    @given(
        tiers=st.lists(
            st.sampled_from([TIER_COMPLETION, 1]),
            min_size=_TIE_N,
            max_size=_TIE_N,
        ),
        permuted=st.permutations(list(range(_TIE_N))),
    )
    def test_same_tier_order_is_exactly_insertion_order(self, tiers, permuted):
        for insertion in (list(range(_TIE_N)), permuted):
            dispatched = _dispatch_order(insertion, tiers)
            for tier in (TIER_COMPLETION, 1):
                expected = [i for i in insertion if tiers[i] == tier]
                observed = [i for i in dispatched if tiers[i] == tier]
                assert observed == expected

    @given(permuted=st.permutations([0, 1]))
    def test_sanitizer_flags_exactly_the_seq_decided_conflicts(self, permuted):
        from repro.analysis.races import RaceSanitizer

        # Same tier: the pair's order is seq-decided, so a conflicting
        # write pair is a race.  Different tiers: ordered, no race.
        for tier_b, expected_races in ((1, 1), (TIER_COMPLETION, 0)):
            tiers = {0: 1, 1: tier_b}
            scheduler = EventScheduler()
            sanitizer = RaceSanitizer()
            sanitizer.watch_scheduler(scheduler)
            for ident in permuted:
                scheduler.schedule(
                    1.0, f"event-{ident}", payload=ident, tier=tiers[ident]
                )
            for _ in range(2):
                scheduler.pop()
                sanitizer.record_write("shared-key")
            sanitizer.finish()
            assert len(sanitizer.races) == expected_races


class TestRngStreams:
    def test_matches_legacy_closure_counter_derivation(self):
        # The n-th distinct stream must be default_rng(seed + n) — the
        # exact sequence the experiment layer's counter hack produced.
        streams = RngStreams(100)
        for n, name in enumerate(["installer:s1", "installer:s2", "x"], 1):
            expected = np.random.default_rng(100 + n)
            assert streams.stream(name).random() == expected.random()

    def test_streams_are_cached_by_name(self):
        streams = RngStreams(7)
        assert streams.stream("a") is streams.stream("a")
        assert streams.ordinal("a") == 1
        assert streams.ordinal("b") == 2
        assert streams.names() == ["a", "b"]
