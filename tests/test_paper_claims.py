"""Fast end-to-end checks of the paper's headline claims.

Each test is a minutes-to-seconds distillation of one sentence from the
paper's abstract or takeaways; the full regenerations live in benchmarks/.
"""

import numpy as np

from repro.core import (
    GuaranteeSpec,
    HermesConfig,
    HermesInstaller,
    asic_overhead,
)
from repro.switchsim import FlowMod, SwitchAgent
from repro.tcam import Action, Rule, commodity_switch_models, pica8_p3290
from repro.traffic import MicrobenchConfig, generate_trace, seed_rules


class TestAbstractClaims:
    def test_five_ms_guarantee_under_five_percent_overhead(self):
        """'with less than 5% overheads, Hermes provides 5ms insertion
        guarantees' — holds on the Pica8 model."""
        overhead = asic_overhead(pica8_p3290(), GuaranteeSpec.milliseconds(5))
        assert overhead < 0.05

    def test_insertion_time_grows_with_occupancy_on_every_switch(self):
        """Section 2.1's premise, for all three commodity models."""
        for timing in commodity_switch_models():
            sparse = timing.base_insertion_latency(50)
            dense = timing.base_insertion_latency(
                min(1000, timing.capacity - 1)
            )
            assert dense > 5 * sparse, timing.name

    def test_guaranteed_inserts_respect_the_bound(self):
        """The core promise: every guaranteed-path insertion fits 5 ms,
        sustained at 1000 rules/s."""
        hermes = HermesInstaller(pica8_p3290())
        agent = SwitchAgent(hermes)
        time = 0.0
        for index in range(800):
            r = Rule.from_prefix(
                f"10.{(index // 200) % 200}.{index % 200}.0/24",
                100 + index,
                Action.output(1),
            )
            completed = agent.submit(FlowMod.add(r), at_time=time)
            if completed.result.used_guaranteed_path:
                assert completed.result.latency <= 5e-3
            time += 1e-3
        assert hermes.violations == 0
        assert len(hermes.rule_manager.migrations) > 0

    def test_deletion_and_modification_stay_cheap(self):
        """Section 2.1.1: deletes are fast; non-priority modifies constant."""
        hermes = HermesInstaller(pica8_p3290())
        r = Rule.from_prefix("10.0.0.0/24", 100, Action.output(1))
        hermes.apply(FlowMod.add(r))
        modify = hermes.apply(FlowMod.modify(r.rule_id, action=Action.drop()))
        delete = hermes.apply(FlowMod.delete(r.rule_id))
        assert modify.latency < 1e-3
        assert delete.latency < 1e-3


class TestComparativeClaims:
    def test_hermes_beats_raw_switch_by_over_80_percent_median(self):
        """'improvement of rule installation time by 80% to 94%'."""
        trace_config = MicrobenchConfig(arrival_rate=400, duration=1.0)
        from repro.experiments.common import replay_trace

        raw = replay_trace(
            generate_trace(trace_config),
            "naive",
            "pica8-p3290",
            prefill_rules=seed_rules(trace_config),
        )
        hermes = replay_trace(
            generate_trace(trace_config),
            "hermes",
            "pica8-p3290",
            hermes_config=HermesConfig(
                admission_control=False, lowest_priority_fastpath=False
            ),
            prefill_rules=seed_rules(trace_config),
        )
        raw_median = np.median(raw.response_times)
        hermes_median = np.median(hermes.response_times)
        assert (raw_median - hermes_median) / raw_median > 0.8

    def test_hermes_variation_is_small(self):
        """'we observe minor variations in the RIT provided by Hermes' —
        the p99/p50 spread stays within a small factor."""
        trace_config = MicrobenchConfig(arrival_rate=400, duration=1.0)
        from repro.experiments.common import replay_trace

        outcome = replay_trace(
            generate_trace(trace_config),
            "hermes",
            "pica8-p3290",
            hermes_config=HermesConfig(
                admission_control=False, lowest_priority_fastpath=False
            ),
            prefill_rules=seed_rules(trace_config),
        )
        p50 = np.median(outcome.response_times)
        p99 = np.percentile(outcome.response_times, 99)
        assert p99 / p50 < 20  # raw switches show orders of magnitude

    def test_benefits_grow_with_update_frequency(self):
        """Section 8.8: 'applications which require frequent modifications
        will yield significantly more benefits'."""
        from repro.experiments.common import replay_trace

        def median_gain(rate):
            trace_config = MicrobenchConfig(arrival_rate=rate, duration=1.0)
            raw = replay_trace(
                generate_trace(trace_config),
                "naive",
                "dell-8132f",
                prefill_rules=seed_rules(trace_config),
            )
            hermes = replay_trace(
                generate_trace(trace_config),
                "hermes",
                "dell-8132f",
                hermes_config=HermesConfig(
                    admission_control=False, lowest_priority_fastpath=False
                ),
                prefill_rules=seed_rules(trace_config),
            )
            return float(
                np.median(raw.response_times) - np.median(hermes.response_times)
            )

        assert median_gain(800) > median_gain(100)
