"""Tests for traffic matrices, flow synthesis, jobs, and microbench traces."""

import numpy as np
import pytest

from repro.switchsim import FlowModCommand
from repro.topology import abilene, pops
from repro.traffic import (
    MicrobenchConfig,
    PriorityMode,
    flows_from_matrix,
    flows_of,
    generate_jobs,
    generate_trace,
    gravity_matrix,
    is_short_job,
    link_loads_from_matrix,
    matrix_total,
    sample_job_size,
    scale_matrix,
    seed_rules,
    task_counts_for,
    tomogravity_matrix,
)


class TestGravityMatrix:
    def test_total_matches_request(self):
        tm = gravity_matrix(pops(abilene()), total_traffic=10e9)
        assert matrix_total(tm) == pytest.approx(10e9)

    def test_diagonal_absent(self):
        tm = gravity_matrix(["a", "b", "c"], 100.0)
        assert ("a", "a") not in tm
        assert len(tm) == 6

    def test_weights_shape_the_matrix(self):
        tm = gravity_matrix(
            ["big", "mid", "tiny"],
            100.0,
            weights={"big": 10.0, "mid": 1.0, "tiny": 0.1},
        )
        assert tm[("big", "mid")] > tm[("mid", "tiny")]

    def test_validation(self):
        with pytest.raises(ValueError):
            gravity_matrix(["only"], 10.0)
        with pytest.raises(ValueError):
            gravity_matrix(["a", "b"], -1.0)
        with pytest.raises(ValueError):
            gravity_matrix(["a", "b"], 1.0, weights={"a": 0.0, "b": 0.0})

    def test_deterministic_default_weights(self):
        nodes = pops(abilene())
        assert gravity_matrix(nodes, 1e9) == gravity_matrix(nodes, 1e9)


class TestTomogravity:
    def test_recovers_gravity_matrix_from_loads(self):
        graph = abilene()
        truth = gravity_matrix(pops(graph), 50e9)
        loads = link_loads_from_matrix(graph, truth)
        estimate = tomogravity_matrix(graph, loads)
        error = sum(abs(estimate[p] - truth[p]) for p in truth) / matrix_total(truth)
        assert error < 0.10

    def test_estimates_are_nonnegative(self):
        graph = abilene()
        loads = link_loads_from_matrix(graph, gravity_matrix(pops(graph), 1e9))
        estimate = tomogravity_matrix(graph, loads)
        assert all(volume >= 0 for volume in estimate.values())

    def test_reproduces_link_loads(self):
        graph = abilene()
        truth = gravity_matrix(pops(graph), 10e9)
        loads = link_loads_from_matrix(graph, truth)
        estimated_loads = link_loads_from_matrix(
            graph, tomogravity_matrix(graph, loads)
        )
        for link, load in loads.items():
            assert estimated_loads[link] == pytest.approx(load, rel=0.05, abs=1e6)


class TestScaling:
    def test_scale(self):
        tm = gravity_matrix(["a", "b"], 100.0)
        assert matrix_total(scale_matrix(tm, 0.5)) == pytest.approx(50.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_matrix({}, -1.0)


class TestFlowSynthesis:
    def test_flows_sorted_and_in_window(self):
        tm = gravity_matrix(pops(abilene()), 1e9)
        flows = flows_from_matrix(tm, duration=2.0, rng=np.random.default_rng(0))
        times = [flow.start_time for flow in flows]
        assert times == sorted(times)
        assert all(0 <= t < 2.0 for t in times)

    def test_volume_roughly_realized(self):
        tm = gravity_matrix(pops(abilene()), 1e9)
        flows = flows_from_matrix(
            tm, duration=20.0, mean_flow_size=1e6, rng=np.random.default_rng(1)
        )
        realized = sum(flow.size for flow in flows) * 8 / 20.0
        assert realized == pytest.approx(1e9, rel=0.15)

    def test_endpoints_differ(self):
        tm = gravity_matrix(pops(abilene()), 1e9)
        for flow in flows_from_matrix(tm, duration=1.0):
            assert flow.source != flow.destination

    def test_validation(self):
        with pytest.raises(ValueError):
            flows_from_matrix({}, duration=0.0)


class TestFacebookJobs:
    def test_job_count_and_ordering(self):
        hosts = [f"h{i}" for i in range(64)]
        jobs = generate_jobs(hosts, job_count=50, rng=np.random.default_rng(0))
        assert len(jobs) == 50
        starts = [job.start_time for job in jobs]
        assert starts == sorted(starts)

    def test_majority_short_with_heavy_tail(self):
        rng = np.random.default_rng(7)
        sizes = [sample_job_size(rng) for _ in range(3000)]
        short_fraction = np.mean([size < 1e9 for size in sizes])
        assert 0.7 < short_fraction < 0.97
        assert max(sizes) > 50e9  # the tail reaches far

    def test_short_long_split_helper(self):
        hosts = [f"h{i}" for i in range(64)]
        jobs = generate_jobs(hosts, job_count=200, rng=np.random.default_rng(3))
        labels = {is_short_job(job) for job in jobs}
        assert labels == {True, False}  # both classes present

    def test_task_counts_scale_with_size(self):
        assert task_counts_for(1e6) <= task_counts_for(1e9) <= task_counts_for(1e12)

    def test_flows_respect_job_membership(self):
        hosts = [f"h{i}" for i in range(64)]
        jobs = generate_jobs(hosts, job_count=10, rng=np.random.default_rng(0))
        flows = flows_of(jobs)
        job_ids = {job.job_id for job in jobs}
        assert all(flow.job_id in job_ids for flow in flows)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_jobs(["a"], job_count=5)
        with pytest.raises(ValueError):
            generate_jobs(["a", "b"], job_count=0)


class TestMicrobench:
    def test_trace_respects_rate_and_duration(self):
        config = MicrobenchConfig(arrival_rate=500, duration=2.0, overlap_rate=0.0)
        trace = generate_trace(config)
        assert len(trace) == 1000
        assert trace[-1].time == pytest.approx(2.0)

    def test_all_adds(self):
        for timed in generate_trace(MicrobenchConfig(arrival_rate=100, duration=0.5)):
            assert timed.flow_mod.command is FlowModCommand.ADD

    def test_zero_overlap_rules_miss_seeds(self):
        config = MicrobenchConfig(arrival_rate=200, duration=1.0, overlap_rate=0.0)
        seeds = seed_rules(config)
        for timed in generate_trace(config):
            for seed in seeds:
                assert not timed.flow_mod.rule.overlaps(seed)

    def test_full_overlap_rules_hit_seeds(self):
        config = MicrobenchConfig(arrival_rate=200, duration=1.0, overlap_rate=1.0)
        seeds = seed_rules(config)
        for timed in generate_trace(config):
            rule = timed.flow_mod.rule
            assert any(rule.overlaps(seed) for seed in seeds)
            # Overlapping rules sit below every seed priority, so the
            # partitioner must act on them.
            assert all(rule.priority < seed.priority for seed in seeds)

    def test_priority_modes(self):
        base = dict(arrival_rate=100, duration=1.0)
        ascending = [
            t.flow_mod.rule.priority
            for t in generate_trace(
                MicrobenchConfig(priority_mode=PriorityMode.ASCENDING, **base)
            )
        ]
        assert ascending == sorted(ascending)
        descending = [
            t.flow_mod.rule.priority
            for t in generate_trace(
                MicrobenchConfig(priority_mode=PriorityMode.DESCENDING, **base)
            )
        ]
        assert descending == sorted(descending, reverse=True)
        uniform = {
            t.flow_mod.rule.priority
            for t in generate_trace(
                MicrobenchConfig(priority_mode=PriorityMode.UNIFORM, **base)
            )
        }
        assert len(uniform) == 1

    def test_reproducible_with_seed(self):
        config = MicrobenchConfig(arrival_rate=100, duration=0.5, overlap_rate=0.5)
        first = [
            (t.time, str(t.flow_mod.rule.match)) for t in generate_trace(config)
        ]
        second = [
            (t.time, str(t.flow_mod.rule.match)) for t in generate_trace(config)
        ]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            MicrobenchConfig(arrival_rate=0)
        with pytest.raises(ValueError):
            MicrobenchConfig(overlap_rate=1.5)
        with pytest.raises(ValueError):
            MicrobenchConfig(duration=-1)
