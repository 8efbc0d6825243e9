"""Tests for the multi-table pipeline and the serializing switch agent."""

import pytest

from repro.core import HermesInstaller
from repro.obs import RecordingTracer, use_tracer
from repro.switchsim import (
    DirectInstaller,
    FlowMod,
    MissBehavior,
    Pipeline,
    PipelineStage,
    SwitchAgent,
)
from repro.tcam import Action, Prefix, Rule, TcamTable, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def key(address):
    return Prefix.from_string(address).network


class TestPipeline:
    def make_two_stage(self):
        shadow = TcamTable(pica8_p3290(), capacity=16, name="shadow")
        main = TcamTable(pica8_p3290(), capacity=256, name="main")
        pipeline = Pipeline(
            [
                PipelineStage("shadow", shadow, MissBehavior.GOTO_NEXT),
                PipelineStage("main", main, MissBehavior.DROP),
            ]
        )
        return pipeline, shadow, main

    def test_shadow_match_short_circuits(self):
        pipeline, shadow, main = self.make_two_stage()
        shadow.insert(rule("10.0.0.0/8", 1, port=1))
        main.insert(rule("10.0.0.0/8", 99, port=2))
        verdict = pipeline.process(key("10.1.1.1"))
        assert verdict.stage == "shadow"
        assert verdict.rule.action.port == 1

    def test_miss_falls_through_to_main(self):
        pipeline, shadow, main = self.make_two_stage()
        main.insert(rule("10.0.0.0/8", 5, port=2))
        verdict = pipeline.process(key("10.1.1.1"))
        assert verdict.stage == "main"
        assert verdict.rule.action.port == 2

    def test_full_miss_drops(self):
        pipeline, _, _ = self.make_two_stage()
        verdict = pipeline.process(key("192.168.0.1"))
        assert verdict.dropped and not verdict.matched

    def test_to_controller_miss(self):
        table = TcamTable(pica8_p3290(), capacity=4)
        pipeline = Pipeline(
            [PipelineStage("only", table, MissBehavior.TO_CONTROLLER)]
        )
        verdict = pipeline.process(0)
        assert verdict.punted and not verdict.matched

    def test_goto_next_off_the_end_drops(self):
        table = TcamTable(pica8_p3290(), capacity=4)
        pipeline = Pipeline([PipelineStage("only", table, MissBehavior.GOTO_NEXT)])
        assert pipeline.process(0).dropped

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_duplicate_stage_names_rejected(self):
        table = TcamTable(pica8_p3290(), capacity=4)
        with pytest.raises(ValueError):
            Pipeline([PipelineStage("x", table), PipelineStage("x", table)])

    def test_stage_accessor(self):
        pipeline, shadow, _ = self.make_two_stage()
        assert pipeline.stage("shadow").table is shadow
        with pytest.raises(KeyError):
            pipeline.stage("bogus")


class TestSwitchAgent:
    @pytest.fixture
    def agent(self):
        return SwitchAgent(DirectInstaller(pica8_p3290(), capacity=256), name="s1")

    def test_single_action_timing(self, agent):
        completed = agent.submit(FlowMod.add(rule("10.0.0.0/8", 5)), at_time=1.0)
        assert completed.submit_time == 1.0
        assert completed.start_time == 1.0
        assert completed.finish_time > 1.0
        assert completed.response_time == pytest.approx(completed.result.latency)

    def test_burst_queues_serially(self, agent):
        first = agent.submit(FlowMod.add(rule("10.0.0.0/8", 5)), at_time=0.0)
        second = agent.submit(FlowMod.add(rule("11.0.0.0/8", 5)), at_time=0.0)
        assert second.start_time == pytest.approx(first.finish_time)
        assert second.response_time > second.result.latency / 2

    def test_idle_gap_resets_queue(self, agent):
        agent.submit(FlowMod.add(rule("10.0.0.0/8", 5)), at_time=0.0)
        later = agent.submit(FlowMod.add(rule("11.0.0.0/8", 5)), at_time=100.0)
        assert later.start_time == 100.0

    def test_batch_executes_back_to_back(self, agent):
        mods = [FlowMod.add(rule(f"10.{i}.0.0/16", 5)) for i in range(4)]
        completed = agent.submit_batch(mods, at_time=0.0)
        for earlier, later in zip(completed, completed[1:]):
            assert later.start_time == pytest.approx(earlier.finish_time)
        assert agent.busy_until == pytest.approx(completed[-1].finish_time)

    def test_history_and_latencies(self, agent):
        first = agent.submit(FlowMod.add(rule("10.0.0.0/8", 5)))
        second = agent.submit(FlowMod.add(rule("11.0.0.0/8", 5)))
        assert agent.history() == [first, second]
        assert [action.response_time for action in agent.history()] == [
            first.finish_time - first.submit_time,
            second.finish_time - second.submit_time,
        ]
        assert agent.stats.actions == 2

    def test_lookup_delegates(self, agent):
        agent.submit(FlowMod.add(rule("10.0.0.0/8", 5, port=8)))
        assert agent.lookup(key("10.0.0.1")).action.port == 8


class TestBatchSpanShifts:
    def test_traced_batch_span_carries_the_shift_delta(self):
        hermes = HermesInstaller(pica8_p3290())
        agent = SwitchAgent(hermes, name="s1")
        # Rising priorities: each insert lands above the residents and
        # shifts them, so the delta is not trivially zero.
        mods = [FlowMod.add(rule(f"10.{i}.0.0/16", 10 + i)) for i in range(6)]
        tracer = RecordingTracer()
        before = hermes.shift_count()
        with use_tracer(tracer):
            agent.submit_batch(mods, at_time=0.0)
        delta = hermes.shift_count() - before
        assert delta > 0
        [batch] = [
            record for record in tracer.records
            if record["type"] == "span" and record["name"] == "agent.batch"
        ]
        assert batch["attrs"]["shifts"] == delta
