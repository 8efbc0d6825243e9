"""Tests for the BGP substrate: RIB decision process, FIB compilation, streams."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bgp import (
    BgpRoute,
    BgpRouter,
    BgpUpdate,
    BgpUpdateKind,
    ROUTER_PROFILES,
    Rib,
    generate_updates,
    get_router_profile,
    update_rate_series,
)
from repro.switchsim import FlowModCommand
from repro.tcam import Prefix


def P(text):
    return Prefix.from_string(text)


def route(prefix, peer, as_path=(100, 200), local_pref=100, med=0, next_hop=1):
    return BgpRoute(
        prefix=P(prefix),
        peer=peer,
        as_path=tuple(as_path),
        next_hop=next_hop,
        local_pref=local_pref,
        med=med,
    )


class TestDecisionProcess:
    def test_local_pref_dominates(self):
        rib = Rib()
        rib.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", local_pref=100)))
        change = rib.process(
            BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", local_pref=200))
        )
        assert change.changed
        assert change.current.peer == "b"

    def test_shorter_as_path_wins(self):
        rib = Rib()
        rib.process(
            BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", as_path=(1, 2, 3)))
        )
        change = rib.process(
            BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", as_path=(1, 2)))
        )
        assert change.current.peer == "b"

    def test_lower_med_wins(self):
        rib = Rib()
        rib.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", med=50)))
        change = rib.process(BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", med=10)))
        assert change.current.peer == "b"

    def test_worse_route_does_not_change_best(self):
        rib = Rib()
        rib.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", local_pref=200)))
        change = rib.process(
            BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", local_pref=50))
        )
        assert not change.changed

    def test_withdraw_falls_back_to_next_best(self):
        rib = Rib()
        rib.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", local_pref=200)))
        rib.process(BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", local_pref=100)))
        change = rib.process(BgpUpdate.withdraw(2.0, "a", P("10.0.0.0/8")))
        assert change.changed
        assert change.current.peer == "b"

    def test_withdraw_last_route_empties_prefix(self):
        rib = Rib()
        rib.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a")))
        change = rib.process(BgpUpdate.withdraw(1.0, "a", P("10.0.0.0/8")))
        assert change.current is None
        assert rib.prefix_count() == 0

    def test_withdraw_unknown_is_noop(self):
        rib = Rib()
        change = rib.process(BgpUpdate.withdraw(0.0, "a", P("10.0.0.0/8")))
        assert not change.changed

    def test_route_counts(self):
        rib = Rib()
        rib.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a")))
        rib.process(BgpUpdate.announce(1.0, route("10.0.0.0/8", "b")))
        rib.process(BgpUpdate.announce(2.0, route("11.0.0.0/8", "a")))
        assert rib.route_count() == 3
        assert rib.prefix_count() == 2


class TestFibCompilation:
    def make_router(self):
        return BgpRouter(port_of_peer={"a": 1, "b": 2, "c": 3})

    def test_new_prefix_becomes_add(self):
        router = self.make_router()
        mods = router.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a")))
        assert len(mods) == 1
        assert mods[0].command is FlowModCommand.ADD
        assert mods[0].rule.action.port == 1
        # LPM encoding: priority equals prefix length.
        assert mods[0].rule.priority == 8

    def test_next_hop_change_becomes_modify(self):
        router = self.make_router()
        router.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a")))
        mods = router.process(
            BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", local_pref=200))
        )
        assert len(mods) == 1
        assert mods[0].command is FlowModCommand.MODIFY
        assert mods[0].new_action.port == 2

    def test_full_withdraw_becomes_delete(self):
        router = self.make_router()
        router.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a")))
        mods = router.process(BgpUpdate.withdraw(1.0, "a", P("10.0.0.0/8")))
        assert len(mods) == 1
        assert mods[0].command is FlowModCommand.DELETE

    def test_rib_only_churn_is_suppressed(self):
        router = self.make_router()
        router.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", local_pref=200)))
        mods = router.process(
            BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", local_pref=50))
        )
        assert mods == []
        assert router.fib.stats.suppressed == 1

    def test_same_port_best_path_change_is_suppressed(self):
        router = self.make_router()
        router.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a", as_path=(1, 2, 3))))
        # Better route from the same peer: best path changes but the port
        # does not, so the data plane needs no update.
        mods = router.process(
            BgpUpdate.announce(1.0, route("10.0.0.0/8", "a", as_path=(1, 2)))
        )
        assert mods == []

    def test_stats_accounting(self):
        router = self.make_router()
        router.process(BgpUpdate.announce(0.0, route("10.0.0.0/8", "a")))
        router.process(BgpUpdate.announce(1.0, route("10.0.0.0/8", "b", local_pref=200)))
        router.process(BgpUpdate.withdraw(2.0, "b", P("10.0.0.0/8")))
        stats = router.fib.stats
        assert stats.adds == 1
        assert stats.modifies == 2  # b takes over, then falls back to a
        assert stats.fib_actions == 3


class TestUpdateValidation:
    def test_announce_requires_route(self):
        with pytest.raises(ValueError):
            BgpUpdate(time=0.0, kind=BgpUpdateKind.ANNOUNCE, peer="a", prefix=P("10.0.0.0/8"))

    def test_route_attributes_must_agree(self):
        with pytest.raises(ValueError):
            BgpUpdate(
                time=0.0,
                kind=BgpUpdateKind.ANNOUNCE,
                peer="b",
                prefix=P("10.0.0.0/8"),
                route=route("10.0.0.0/8", "a"),
            )

    def test_empty_as_path_rejected(self):
        with pytest.raises(ValueError):
            route("10.0.0.0/8", "a", as_path=())


class TestStreams:
    def test_profiles_exist(self):
        assert set(ROUTER_PROFILES) == {
            "equinix-chicago",
            "telxatl",
            "nwax",
            "uoregon",
        }
        with pytest.raises(KeyError):
            get_router_profile("rrc00")

    def test_stream_sorted_and_bounded(self):
        profile = get_router_profile("nwax")
        updates = generate_updates(profile, duration=10.0, rng=np.random.default_rng(0))
        times = [update.time for update in updates]
        assert times == sorted(times)
        assert all(0 <= t < 10.0 for t in times)

    def test_low_median_high_tail(self):
        # The Section 2.3 shape: low update rates except a >1000/s tail.
        profile = get_router_profile("equinix-chicago")
        updates = generate_updates(profile, duration=60.0, rng=np.random.default_rng(1))
        rates = [rate for _, rate in update_rate_series(updates)]
        assert np.median(rates) < 200
        assert max(rates) > 1000

    def test_stream_feeds_router(self):
        profile = get_router_profile("uoregon")
        updates = generate_updates(profile, duration=5.0, rng=np.random.default_rng(2))
        router = BgpRouter()
        total_mods = sum(len(router.process(update)) for update in updates)
        assert 0 < total_mods <= len(updates)
        assert router.fib.entry_count() == router.rib.prefix_count()

    def test_rate_series_validation(self):
        with pytest.raises(ValueError):
            update_rate_series([], bin_seconds=0)
        assert update_rate_series([]) == []

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            generate_updates(get_router_profile("nwax"), duration=0.0)


_FIB_TRACE_SCRIPT = r"""
import hashlib

from repro.experiments.bgp_section import BgpConfig, fib_trace

trace = fib_trace("nwax", BgpConfig(duration=3.0))
print(hashlib.sha256("\n".join(repr(t) for t in trace).encode()).hexdigest())
"""


def _fib_trace_digest(hash_seed):
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-c", _FIB_TRACE_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


class TestFibDeterminism:
    def test_default_port_map_independent_of_hash_seed(self):
        # The default peer -> port map must not ride str hash randomization.
        assert _fib_trace_digest("0") == _fib_trace_digest("1")
