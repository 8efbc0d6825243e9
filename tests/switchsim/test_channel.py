"""Tests for the control channel: naive equivalence, retry, dedup, breaker."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FlowModFault
from repro.switchsim import (
    ChannelConfig,
    DirectInstaller,
    FlowMod,
    NaiveChannel,
    ResilientChannel,
    SwitchAgent,
)
from repro.tcam import Action, Rule, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def make_agent(injector=None, name="sw"):
    installer = DirectInstaller(pica8_p3290(), injector=injector)
    return SwitchAgent(installer, name=name, injector=injector)


def occupancy(agent):
    return len(agent.installer.table)


class TestChannelConfig:
    def test_defaults_valid(self):
        ChannelConfig()

    @pytest.mark.parametrize(
        "bad",
        [
            {"timeout": 0.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"jitter": 1.5},
            {"breaker_threshold": 0},
            {"breaker_cooldown": -1.0},
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ChannelConfig(**bad)


class TestNaiveChannel:
    def test_matches_direct_submit_without_injector(self):
        direct_agent = make_agent()
        channel_agent = make_agent()
        channel = NaiveChannel(channel_agent)
        for index in range(8):
            mod = FlowMod.add(rule(f"10.0.{index}.0/24", 5))
            expected = direct_agent.submit(mod, at_time=index * 0.01)
            outcome = channel.send(mod, at_time=index * 0.01)
            assert outcome.delivered
            assert outcome.attempts == 1
            # No acks: the controller observes each action's own finish.
            assert outcome.done_time is None
            assert outcome.completed[0].finish_time == expected.finish_time
            assert outcome.completed[0].result.latency == expected.result.latency
        assert occupancy(direct_agent) == occupancy(channel_agent)

    def test_drop_loses_the_install_forever(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=0.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent()
        channel = NaiveChannel(agent, injector)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert not outcome.delivered
        assert not outcome.applied
        assert occupancy(agent) == 0
        assert channel.stats.give_ups == 1

    def test_ack_loss_still_applies(self):
        # Fire-and-forget has no acks: a "drop-ack" verdict is a delivery.
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=1.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent()
        channel = NaiveChannel(agent, injector)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert outcome.applied
        assert occupancy(agent) == 1


def resilient(agent, injector, **overrides):
    config = ChannelConfig(**{"jitter": 0.0, **overrides})
    return ResilientChannel(agent, injector, config=config)


class TestResilientChannel:
    def test_no_faults_single_attempt(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        agent = make_agent(injector)
        channel = resilient(agent, injector)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert outcome.delivered and outcome.attempts == 1 and outcome.retries == 0
        assert occupancy(agent) == 1

    def test_retries_until_delivered(self):
        # drop=0.7 with pure forward loss: every send must still land.
        plan = FaultPlan(flowmod=FlowModFault(drop=0.7, ack_loss_fraction=0.0))
        injector = FaultInjector(plan, seed=4)
        agent = make_agent(injector)
        channel = resilient(agent, injector, max_retries=64, breaker_threshold=128)
        for index in range(24):
            outcome = channel.send(
                FlowMod.add(rule(f"10.0.{index}.0/24", 5)), at_time=index * 0.5
            )
            assert outcome.delivered
        assert occupancy(agent) == 24
        assert channel.stats.retries > 0
        assert channel.stats.retries == injector.log.count("flowmod-drop")

    def test_lost_ack_never_double_installs(self):
        # Every delivery applies but loses its ack; the retransmission hits
        # the xid cache, so exactly one TCAM entry appears per send.  The
        # sender still gives up (it never hears), but applied=True records
        # that the switch did the work.
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=1.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = resilient(
            agent, injector, max_retries=5, breaker_threshold=128
        )
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert not outcome.delivered
        assert outcome.applied  # installed on attempt 1, acks all lost
        assert occupancy(agent) == 1
        assert agent.stats.deduplicated == 5  # every retry absorbed

    def test_duplicate_delivery_absorbed(self):
        plan = FaultPlan(
            flowmod=FlowModFault(drop=0.0, duplicate=1.0)
        )
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = resilient(agent, injector)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert outcome.delivered
        assert occupancy(agent) == 1
        assert agent.stats.deduplicated == 1

    def test_gives_up_after_retry_budget(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=0.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = resilient(agent, injector, max_retries=3, breaker_threshold=128)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert not outcome.delivered
        assert outcome.attempts == 4  # 1 + max_retries
        assert channel.stats.give_ups == 1
        assert injector.log.count("give-up") == 1

    def test_done_time_includes_backoff(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=0.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = resilient(agent, injector, max_retries=2, breaker_threshold=128)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=1.0)
        assert outcome.done_time > 1.0 + channel.config.timeout

    def test_batch_send_and_dedup(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=1.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = resilient(agent, injector, max_retries=4, breaker_threshold=128)
        mods = [FlowMod.add(rule(f"10.0.{i}.0/24", 5)) for i in range(3)]
        outcome = channel.send_batch(mods, at_time=0.0)
        assert outcome.applied and not outcome.delivered
        assert occupancy(agent) == 3  # batch applied exactly once


class TestCircuitBreaker:
    def _drop_all(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=0.0))
        return FaultInjector(plan, seed=0)

    def test_opens_after_threshold_and_fast_fails(self):
        injector = self._drop_all()
        agent = make_agent(injector)
        opened_at = []
        channel = ResilientChannel(
            agent,
            injector,
            config=ChannelConfig(
                jitter=0.0, max_retries=10, breaker_threshold=3, breaker_cooldown=5.0
            ),
            on_breaker_open=opened_at.append,
        )
        first = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert not first.delivered
        assert channel.breaker_open
        assert channel.stats.breaker_opens == 1
        assert len(opened_at) == 1
        # While open, sends fast-fail without touching the network.
        drops_before = injector.log.count("flowmod-drop")
        second = channel.send(
            FlowMod.add(rule("10.0.1.0/24", 5)), at_time=first.done_time + 0.01
        )
        assert second.attempts == 0 and not second.delivered
        assert channel.stats.fast_fails == 1
        assert injector.log.count("flowmod-drop") == drops_before

    def test_half_open_recovery(self):
        # Trip the breaker under total loss, then heal the channel: the
        # first send after the cooldown probes and succeeds, closing it.
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=0.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = ResilientChannel(
            agent,
            injector,
            config=ChannelConfig(
                jitter=0.0, max_retries=10, breaker_threshold=3, breaker_cooldown=1.0
            ),
        )
        tripped = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=0.0)
        assert channel.breaker_open
        injector.plan = FaultPlan()  # network heals
        probe_time = tripped.done_time + channel.config.breaker_cooldown + 1.0
        outcome = channel.send(FlowMod.add(rule("10.0.1.0/24", 5)), at_time=probe_time)
        assert outcome.delivered
        assert not channel.breaker_open
        assert occupancy(agent) == 1


class TestChannelHistory:
    def test_naive_history_keeps_applied_sends_in_order(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=0.5, ack_loss_fraction=0.0))
        channel = NaiveChannel(make_agent(), FaultInjector(plan, seed=3))
        outcomes = [
            channel.send(FlowMod.add(rule(f"10.0.{index}.0/24", 5)), index * 0.01)
            for index in range(16)
        ]
        applied = [outcome for outcome in outcomes if outcome.applied]
        assert 0 < len(applied) < len(outcomes)
        assert channel.history() == applied
        # Fire-and-forget with no delay: the controller hears at the finish.
        assert all(outcome.channel_delay == 0.0 for outcome in applied)

    def test_lost_ack_wait_is_channel_delay(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=1.0))
        injector = FaultInjector(plan, seed=0)
        agent = make_agent(injector)
        channel = resilient(agent, injector, max_retries=2, breaker_threshold=128)
        outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), at_time=1.0)
        (action,) = outcome.completed
        assert outcome.sent_time == 1.0
        assert outcome.channel_delay == (outcome.done_time - 1.0) - (
            action.finish_time - action.submit_time
        )
        assert outcome.channel_delay > 2 * channel.config.timeout
        assert channel.history() == [outcome]

    def test_traced_flowmod_span_carries_the_channel_stage(self):
        from repro.obs import RecordingTracer, use_tracer

        plan = FaultPlan(flowmod=FlowModFault(drop=1.0, ack_loss_fraction=1.0))
        injector = FaultInjector(plan, seed=0)
        channel = resilient(make_agent(injector), injector, max_retries=1)
        tracer = RecordingTracer()
        with use_tracer(tracer):
            outcome = channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), 0.0)
        (span,) = [
            record for record in tracer.records
            if record["type"] == "span" and record["name"] == "flowmod"
        ]
        assert span["attrs"]["channel"] == outcome.channel_delay > 0.0

    def test_untraced_send_never_computes_the_channel_stage(self, monkeypatch):
        from repro.switchsim import SendOutcome

        def refuse(_self):
            raise AssertionError("channel_delay read on an untraced send")

        monkeypatch.setattr(SendOutcome, "channel_delay", property(refuse))
        injector = FaultInjector(FaultPlan(), seed=0)
        channel = resilient(make_agent(injector), injector)
        assert channel.send(FlowMod.add(rule("10.0.0.0/24", 5)), 0.0).applied
        naive = NaiveChannel(make_agent())
        assert naive.send(FlowMod.add(rule("10.0.0.0/24", 5)), 0.0).applied
