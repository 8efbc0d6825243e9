"""Cross-layer integration tests.

These exercise whole pipelines — BGP updates through the RIB/FIB into
Hermes's partitioned TCAM, Hermes under churn with live migrations against
a monolithic reference, and the operator API over a running workload.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_partition
from repro.bgp import BgpRouter, generate_updates, get_router_profile
from repro.core import GuaranteeSpec, HermesConfig, HermesInstaller, HermesService
from repro.switchsim import DirectInstaller, FlowMod, SwitchAgent
from repro.tcam import Action, Prefix, Rule, dell_8132f, pica8_p3290
from repro.traffic import MicrobenchConfig, generate_trace


class TestBgpThroughHermes:
    """The FIB installed through Hermes must forward exactly as the RIB says."""

    def test_forwarding_matches_rib_best_routes(self):
        profile = get_router_profile("nwax")
        updates = generate_updates(profile, 10.0, rng=np.random.default_rng(5))
        router = BgpRouter()
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(
                guarantee=GuaranteeSpec.milliseconds(5),
                admission_control=False,
            ),
        )
        agent = SwitchAgent(hermes)
        for update in updates:
            for flow_mod in router.process(update):
                agent.submit(flow_mod, at_time=update.time)
        # Force any shadow remainder through a final migration, then check
        # that every reachable prefix forwards out the RIB-selected port.
        hermes.rule_manager.migrate(now=updates[-1].time + 1.0)
        # The partitioned pair must provably behave like one table.
        assert hermes.verify() == []
        checked = 0
        for route in router.rib.best_routes():
            probe = route.prefix.first_address
            hit = hermes.lookup(probe)
            assert hit is not None, f"no rule covers {route.prefix}"
            # Longest-prefix match: the hit must be at least as specific as
            # this route's prefix; when equal, ports must agree.
            hit_prefix = hit.match.to_prefix()
            assert hit_prefix.length >= route.prefix.length
            if hit_prefix == route.prefix:
                assert hit.action.port == router.fib.port_for(route)
                checked += 1
        assert checked > 50  # the assertion actually bit

    def test_fib_entry_count_matches_hermes_occupancy(self):
        profile = get_router_profile("uoregon")
        updates = generate_updates(profile, 5.0, rng=np.random.default_rng(9))
        router = BgpRouter()
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(admission_control=False),
        )
        for update in updates:
            for flow_mod in router.process(update):
                hermes.apply(flow_mod)
        # FIB prefixes are disjoint-by-length LPM rules; Hermes never
        # fragments them (no overlap has *higher* priority under the
        # priority=length encoding unless prefixes nest, in which case the
        # more specific rule wins both tables consistently).
        assert hermes.occupancy() >= router.fib.entry_count()


class TestChurnDifferential:
    """Hermes with live migrations stays equivalent to a monolithic table."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_probe_after_heavy_churn(self, probe_seed):
        rng = np.random.default_rng(probe_seed % 10_000)
        hermes = HermesInstaller(
            dell_8132f(),
            config=HermesConfig(
                shadow_capacity=24,
                admission_control=False,
                epoch=0.01,
            ),
        )
        direct = DirectInstaller(pica8_p3290())
        installed = []
        time = 0.0
        for step in range(120):
            time += 0.005
            hermes.advance_time(time)
            if installed and rng.random() < 0.3:
                victim = installed.pop(int(rng.integers(0, len(installed))))
                hermes.apply(FlowMod.delete(victim[0].rule_id))
                direct.apply(FlowMod.delete(victim[1].rule_id))
                continue
            length = int(rng.integers(8, 25))
            mask = ((1 << length) - 1) << (32 - length)
            network = ((10 << 24) | int(rng.integers(0, 1 << 24)) << 0) & mask
            priority = int(rng.integers(1, 200))
            port = int(rng.integers(1, 9))
            pair = (
                Rule.from_prefix(Prefix(network, length), priority, Action.output(port)),
                Rule.from_prefix(Prefix(network, length), priority, Action.output(port)),
            )
            hermes.apply(FlowMod.add(pair[0]))
            direct.apply(FlowMod.add(pair[1]))
            installed.append(pair)
        # Force one more migration mid-state, then let the static verifier
        # check the pair wholesale before the probe-based differential.
        hermes.rule_manager.migrate(time)
        assert verify_partition(hermes.shadow.rules(), hermes.main.rules()) == []
        probes = set()
        for h_rule, _ in installed:
            prefix = h_rule.match.to_prefix()
            probes.add(prefix.first_address)
            probes.add(prefix.last_address)
        for probe in probes:
            matching = [r for r, _ in installed if r.match.matches(probe)]
            priorities = [r.priority for r in matching]
            if priorities and priorities.count(max(priorities)) > 1:
                continue  # tie: monolithic order is implementation-defined
            h_hit = hermes.lookup(probe)
            d_hit = direct.lookup(probe)
            h_action = None if h_hit is None else h_hit.action
            d_action = None if d_hit is None else d_hit.action
            assert h_action == d_action


class TestOperatorLifecycle:
    """Create -> tighten -> re-scope -> delete a QoS over live traffic."""

    def test_full_lifecycle(self):
        service = HermesService()
        service.register_switch("s1", pica8_p3290())
        handle = service.CreateTCAMQoS("s1", GuaranteeSpec.milliseconds(10))
        installer = service.installer(handle.shadow_id)
        trace_config = MicrobenchConfig(arrival_rate=300, duration=0.5)
        agent = SwitchAgent(installer)
        for timed in generate_trace(trace_config):
            agent.submit(timed.flow_mod, at_time=timed.time)
        occupancy_before = installer.occupancy()

        # Tighten the guarantee mid-flight: rules survive, shadow shrinks.
        assert service.ModQoSConfig(handle.shadow_id, GuaranteeSpec.milliseconds(1))
        assert installer.occupancy() == occupancy_before
        assert installer.shadow.capacity < handle.shadow_capacity

        # Narrow the scope, then tear down.
        from repro.core import priority_at_least

        assert service.ModQoSMatch(handle.shadow_id, priority_at_least(10_000))
        late = installer.apply(
            FlowMod.add(Rule.from_prefix("203.0.113.0/24", 5, Action.output(1)))
        )
        assert not late.used_guaranteed_path
        assert service.DeleteQoS(handle.shadow_id)
        assert installer.shadow.occupancy == 0
