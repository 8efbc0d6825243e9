"""Verifier-guided fuzzing of the Hermes installer.

A hypothesis state machine drives a :class:`HermesInstaller` with random
FlowMod sequences (adds, deletes, action modifies, forced migrations) and
runs the ruleset verifier after *every* step: any reachable sequence of
control-plane operations that breaks the shadow+main ≡ monolithic
invariant — even transiently — is a bug, and hypothesis shrinks it to a
minimal reproduction.  A :class:`DirectInstaller` executes the same
logical workload as the forwarding oracle.

Budget knobs (for CI): ``FUZZ_EXAMPLES`` (default 20 scenarios) and
``FUZZ_STEPS`` (default 30 operations per scenario).  Setting
``FUZZ_VIA_AGENT=1`` routes every FlowMod through a kernel-clocked
:class:`~repro.switchsim.agent.SwitchAgent` instead of calling the
installer directly, so the agent's queueing/tracing/fault plumbing sits in
the fuzzed path too.  Setting ``FUZZ_RACES=1`` runs every operation as a
dispatched kernel event under the schedule-order race sanitizer
(:class:`repro.analysis.races.RaceSanitizer`) with a per-step
zero-races invariant: each operation advances time, so any race the
sanitizer reports means the instrumentation itself manufactured a
same-instant conflict — a detector false positive caught in the fuzz
loop.
"""

import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.analysis.races import RaceSanitizer
from repro.analysis.verifier import verify_installer
from repro.core import HermesConfig, HermesInstaller
from repro.engine import Clock, EventScheduler
from repro.switchsim import DirectInstaller, FlowMod, SwitchAgent
from repro.tcam import Action, Prefix, Rule, dell_8132f, pica8_p3290
from tests.tcam.moveplan_oracle import capturing_writer

FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "20"))
FUZZ_STEPS = int(os.environ.get("FUZZ_STEPS", "30"))
FUZZ_VIA_AGENT = os.environ.get("FUZZ_VIA_AGENT") == "1"
FUZZ_RACES = os.environ.get("FUZZ_RACES") == "1"


class HermesFuzz(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(
                shadow_capacity=32,
                admission_control=False,
                epoch=0.01,
            ),
        )
        manager = self.hermes.rule_manager
        self.migration_batches = []
        # Hold every real migration batch to the placement oracle.
        manager._write_to_main = capturing_writer(manager, self.migration_batches)
        self.oracle = DirectInstaller(dell_8132f())
        self.agent = (
            SwitchAgent(self.hermes, name="fuzz-switch", clock=Clock())
            if FUZZ_VIA_AGENT
            else None
        )
        self.time = 0.0
        self.live = []  # (hermes_rule, oracle_rule) pairs
        self.used_priorities = set()
        if FUZZ_RACES:
            self.scheduler = EventScheduler()
            self.sanitizer = RaceSanitizer()
            self.sanitizer.watch_scheduler(self.scheduler)
            self.sanitizer.watch_installer(self.hermes, "installer:fuzz")
        else:
            self.scheduler = None
            self.sanitizer = None

    def _as_event(self, kind):
        """FUZZ_RACES mode: run the next operation as a dispatched event,
        so its installer/table accesses get a per-event footprint."""
        if self.scheduler is not None:
            self.scheduler.schedule(self.time, kind)
            self.scheduler.pop()
            self.scheduler.clock.advance_to(self.time)

    def _apply_hermes(self, flow_mod):
        """Apply one FlowMod at ``self.time``, via the agent when asked.

        The agent calls ``advance_time`` itself before executing, so the
        two paths keep identical installer-visible timelines.
        """
        self._as_event("flowmod")
        if self.agent is not None:
            self.agent.submit(flow_mod, at_time=self.time)
        else:
            self.hermes.advance_time(self.time)
            self.hermes.apply(flow_mod)

    # -- operations ----------------------------------------------------
    @rule(
        length=st.integers(min_value=8, max_value=16),
        selector=st.integers(min_value=0, max_value=15),
        priority=st.integers(min_value=2, max_value=400),
        port=st.integers(min_value=1, max_value=7),
    )
    def add_rule(self, length, selector, priority, port):
        # Unique priorities keep overlapping-tie lookup order well defined,
        # so an oracle mismatch always means a real partitioning bug rather
        # than an implementation-defined tie-break.
        while priority in self.used_priorities:
            priority += 1
        self.used_priorities.add(priority)
        mask = ((1 << length) - 1) << (32 - length)
        network = ((10 << 24) | (selector << (32 - length))) & mask
        prefix = Prefix(network, length)
        self.time += 0.005
        h_rule = Rule.from_prefix(prefix, priority, Action.output(port))
        o_rule = Rule.from_prefix(prefix, priority, Action.output(port))
        self._apply_hermes(FlowMod.add(h_rule))
        self.oracle.apply(FlowMod.add(o_rule))
        self.live.append((h_rule, o_rule))

    @precondition(lambda self: self.live)
    @rule(selector=st.integers(min_value=0, max_value=1 << 30))
    def delete_rule(self, selector):
        h_rule, o_rule = self.live.pop(selector % len(self.live))
        self.time += 0.005
        self._apply_hermes(FlowMod.delete(h_rule.rule_id))
        self.oracle.apply(FlowMod.delete(o_rule.rule_id))

    @precondition(lambda self: self.live)
    @rule(
        selector=st.integers(min_value=0, max_value=1 << 30),
        port=st.integers(min_value=1, max_value=7),
    )
    def modify_action(self, selector, port):
        index = selector % len(self.live)
        h_rule, o_rule = self.live[index]
        self.time += 0.005
        self._apply_hermes(FlowMod.modify(h_rule.rule_id, action=Action.output(port)))
        self.oracle.apply(FlowMod.modify(o_rule.rule_id, action=Action.output(port)))

    @rule()
    def force_migration(self):
        self.time += 0.005
        self._as_event("migrate")
        self.hermes.rule_manager.migrate(self.time)

    # -- invariants (the verifier IS the fuzzing oracle) ---------------
    @invariant()
    def partition_invariant_holds(self):
        violations = verify_installer(self.hermes)
        assert violations == [], [str(v) for v in violations]

    @invariant()
    def planned_migration_writes_verify_clean(self):
        while self.migration_batches:
            batch = self.migration_batches.pop()
            if batch.planned:
                findings = batch.findings()
                assert findings == [], [str(finding) for finding in findings]

    @invariant()
    def no_schedule_order_races(self):
        # Ops run at strictly increasing instants, so the sanitizer must
        # stay silent; a report here is a detector false positive.
        if self.sanitizer is not None:
            assert self.sanitizer.races == [], [
                str(race) for race in self.sanitizer.races
            ]

    @invariant()
    def forwarding_matches_oracle(self):
        for h_rule, _ in self.live:
            prefix = h_rule.match.to_prefix()
            for probe in (prefix.first_address, prefix.last_address):
                h_hit = self.hermes.lookup(probe)
                o_hit = self.oracle.lookup(probe)
                assert (h_hit is None) == (o_hit is None), hex(probe)
                if h_hit is not None:
                    assert h_hit.action == o_hit.action, hex(probe)


    def teardown(self):
        if self.sanitizer is not None:
            races = self.sanitizer.finish()
            assert races == [], [str(race) for race in races]
        super().teardown()


HermesFuzz.TestCase.settings = settings(
    max_examples=FUZZ_EXAMPLES,
    stateful_step_count=FUZZ_STEPS,
    deadline=None,
)

TestHermesFuzz = HermesFuzz.TestCase
