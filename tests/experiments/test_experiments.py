"""Tests for the experiment harness (registry, fast experiments, helpers).

The heavyweight simulation experiments are exercised by the benchmarks;
here we test the registry, the fast experiments end-to-end, and the shared
helpers with tiny parameters.
"""

import pytest

from repro.analysis import ExperimentResult
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    ablation,
    bgp_section,
    failover,
    fig11_timeseries,
    fig12_simple,
    fig13_slack,
    fig14_overhead,
    fig15_cpu,
    table1,
)
from repro.experiments.common import (
    WorkloadScale,
    facebook_workload,
    installer_factory,
    isp_workload,
    replay_trace,
)
from repro.traffic import MicrobenchConfig, generate_trace, seed_rules


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {
            "table1",
            "fig1",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "bgp",
            "sensitivity",
            "ablation",
            "autotune",
            "failover",
            "chaos",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFastExperiments:
    def test_table1(self):
        result = table1.run(table1.Table1Config(probe_inserts=3))
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 8
        assert all(0.9 < row[4] < 1.1 for row in result.rows)

    def test_fig14(self):
        result = fig14_overhead.run()
        assert len(result.rows) == 9
        overheads = result.column("overhead (%)")
        assert all(0 < value <= 100 for value in overheads)

    def test_fig15_shapes(self):
        result = fig15_cpu.run(fig15_cpu.Fig15Config(rule_counts=(50, 200)))
        migration = result.column("migration (ms total)")
        assert migration[1] > migration[0]

    def test_fig11_stream_flavours(self):
        config = fig11_timeseries.Fig11Config(rule_count=40, batch_size=10)
        facebook = fig11_timeseries.build_stream("facebook", config)
        geant = fig11_timeseries.build_stream("geant", config)
        assert len(facebook) == 40 and len(geant) == 40
        with pytest.raises(ValueError):
            fig11_timeseries.build_stream("bogus", config)

    def test_fig12_single_point(self):
        trace = MicrobenchConfig(arrival_rate=400, overlap_rate=1.0, duration=0.25)
        violations, migrations = fig12_simple.run_one("pica8-p3290", 0.0, trace)
        assert violations < 5.0
        assert migrations > 0

    def test_fig13_single_point(self):
        mean_ms, p99_ms, violations = fig13_slack.run_point(
            "dell-8132f", 200.0, 0.0, 1.0, duration=0.25
        )
        assert 0 < mean_ms < p99_ms
        assert violations >= 0

    def test_ablation_variant(self):
        config = ablation.AblationConfig(arrival_rate=300, duration=0.5)
        stats = ablation.run_variant({}, config)
        assert stats["migrations"] >= 1
        assert stats["gap_ms"] == 0.0

    def test_failover_repairs_exclude_te_moves(self):
        # TE still replans every epoch, but with no failure there is
        # nothing to repair.
        quiet = failover.FailoverConfig(failure_times=())
        _, _, repairs = failover.run_scheme("zero-latency", "naive", "ideal", quiet)
        assert repairs == 0
        failing = failover.FailoverConfig(job_count=8)
        _, _, repairs = failover.run_scheme(
            "zero-latency", "naive", "ideal", failing
        )
        assert repairs > 0

    def test_bgp_trace_builder(self):
        config = bgp_section.BgpConfig(duration=3.0)
        trace = bgp_section.fib_trace("nwax", config)
        assert trace
        times = [timed.time for timed in trace]
        assert times == sorted(times)


class TestCommonHelpers:
    def test_facebook_workload_shapes(self):
        scale = WorkloadScale(job_count=5)
        graph, flows, short_ids, long_ids = facebook_workload(scale)
        assert flows
        assert short_ids or long_ids
        assert not short_ids & long_ids

    def test_isp_workload(self):
        scale = WorkloadScale(isp_flow_duration=1.0)
        graph, flows = isp_workload("abilene", scale)
        assert graph.number_of_nodes() == 11
        assert flows

    def test_isp_workload_tomogravity_path(self):
        scale = WorkloadScale(isp_flow_duration=0.5)
        _, flows = isp_workload("abilene", scale, tomogravity=True)
        assert flows

    def test_installer_factory_fresh_instances(self):
        factory = installer_factory("naive", "pica8-p3290", seed=1)
        first, second = factory("s1"), factory("s2")
        assert first is not second

    def test_replay_trace_without_batching(self):
        trace_config = MicrobenchConfig(arrival_rate=100, duration=0.2)
        outcome = replay_trace(
            generate_trace(trace_config),
            "naive",
            "pica8-p3290",
            prefill_rules=seed_rules(trace_config),
        )
        assert len(outcome.response_times) == len(outcome.execution_latencies)
        assert all(
            response >= execution - 1e-12
            for response, execution in zip(
                outcome.response_times, outcome.execution_latencies
            )
        )

    def test_replay_trace_with_batching(self):
        trace_config = MicrobenchConfig(arrival_rate=100, duration=0.2)
        outcome = replay_trace(
            generate_trace(trace_config),
            "espres",
            "pica8-p3290",
            batch_window=0.05,
        )
        assert len(outcome.response_times) == 20
