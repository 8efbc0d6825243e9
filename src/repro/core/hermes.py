"""The Hermes agent: a :class:`RuleInstaller` with performance guarantees.

This is the system of the paper.  A logical TCAM table is realized as two
physical slices — a small *shadow* table absorbing all guaranteed insertions
and a large *main* table — plus the machinery keeping the pair correct and
the shadow empty:

* the **Gate Keeper** routes each insertion (guaranteed path vs best-effort
  main-table path) and enforces the admitted rate with a token bucket;
* **Algorithm 1** partitions shadow-bound rules against higher-priority
  main-table residents so the two tables behave exactly like one;
* the **Rule Manager** predictively migrates rules out of the shadow before
  it fills (Section 5), using the configured predictor and corrector.

Use :func:`repro.core.api.CreateTCAMQoS` for the paper's operator-facing
interface, or construct :class:`HermesInstaller` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..engine.clock import Clock
from ..faults.table import FaultyTable
from ..obs.tracer import get_tracer
from ..switchsim.installer import RuleInstaller
from ..switchsim.messages import FlowMod, FlowModCommand, FlowModResult
from ..tcam.rule import Rule
from ..tcam.slices import CarvedTcam, SliceConfig
from ..tcam.table import TcamTable
from ..tcam.timing import EmpiricalTimingModel
from .correction import Corrector, DeadzoneCorrector, SlackCorrector, make_corrector
from .gatekeeper import GateKeeper, MatchPredicate, TokenBucket, match_all
from .guarantees import (
    GuaranteeSpec,
    estimate_migration_time,
    max_insertion_rate,
    shadow_capacity_for,
)
from .partition import PartitionMap, PartitionOutcome
# Unused here; hermesbench/layertrace.py and repro.obs.perf wrap it at
# this module path.
from .partition import partition_new_rule  # noqa: F401
from .prediction import Predictor, make_predictor
from .rule_manager import (
    MigrationTrigger,
    PredictiveTrigger,
    RuleManager,
    ThresholdTrigger,
)

#: Modelled software cost, per main-table rule examined, of Algorithm 1's
#: overlap scan (Fig 15(b) shows the insertion-side algorithms are cheap;
#: this keeps them so).
PARTITION_LATENCY_BUDGET = 2e-7

#: How long (seconds) Hermes stays degraded after the control channel's
#: circuit breaker opens: guaranteed rules demote to best-effort for this
#: window rather than pretending the guarantee still holds.
DEGRADED_WINDOW = 1.0


@dataclass
class HermesConfig:
    """Tunables of a Hermes deployment (paper defaults preconfigured).

    Attributes:
        guarantee: the per-insertion latency bound to enforce (5 ms default,
            the paper's headline configuration).
        predictor: ``"cubic-spline"`` (default), ``"ewma"``, or ``"arma"``.
        corrector: ``"slack"`` (default), ``"deadzone"``, or ``"none"``.
        slack: Slack corrector inflation fraction; the paper's default is
            100% (Section 8.6).
        deadzone_margin: Deadzone corrector headroom in rules.
        epoch: prediction/migration decision interval in seconds.
        threshold: fill fraction for Hermes-SIMPLE; None selects the
            predictive trigger (regular Hermes).
        lowest_priority_fastpath: Section 4.2 optimization toggle.
        admission_control: enable the Gate Keeper's token bucket.
        atomic_migration: insert-before-delete migration consistency.
        optimize_migration: enable the step-2 rule minimizer.
        shadow_capacity: explicit shadow size; None derives it from the
            guarantee and the switch's timing model.
    """

    guarantee: GuaranteeSpec = field(default_factory=lambda: GuaranteeSpec.milliseconds(5))
    predictor: str = "cubic-spline"
    corrector: str = "slack"
    slack: float = 1.0
    deadzone_margin: float = 100.0
    epoch: float = 0.05
    threshold: Optional[float] = None
    lowest_priority_fastpath: bool = True
    admission_control: bool = True
    atomic_migration: bool = True
    optimize_migration: bool = True
    shadow_capacity: Optional[int] = None
    auto_tune: bool = False

    def build_corrector(self) -> Corrector:
        """Instantiate the configured corrector."""
        if self.corrector == "slack":
            return SlackCorrector(self.slack)
        if self.corrector == "deadzone":
            return DeadzoneCorrector(self.deadzone_margin)
        return make_corrector(self.corrector)

    def build_predictor(self) -> Predictor:
        """Instantiate the configured predictor."""
        return make_predictor(self.predictor)

    def build_trigger(self) -> MigrationTrigger:
        """Instantiate the migration trigger (predictive or threshold)."""
        if self.threshold is not None:
            return ThresholdTrigger(self.threshold)
        return PredictiveTrigger(self.build_predictor(), self.build_corrector())


class HermesInstaller(RuleInstaller):
    """Hermes running against one logical TCAM table.

    Implements :class:`RuleInstaller`, so it slots anywhere the naive
    installer or the baselines do — in particular under
    :class:`~repro.switchsim.agent.SwitchAgent` and the Varys simulator.
    """

    def __init__(
        self,
        timing: EmpiricalTimingModel,
        config: Optional[HermesConfig] = None,
        predicate: MatchPredicate = match_all,
        rng: Optional[np.random.Generator] = None,
        injector=None,
    ) -> None:
        """Carve the switch's TCAM and assemble the Hermes components.

        Args:
            timing: the switch's empirical TCAM timing model.
            config: Hermes tunables; defaults to the paper's configuration.
            predicate: selects which rules receive guarantees.
            rng: optional generator enabling latency noise.
            injector: optional :class:`~repro.faults.injector.FaultInjector`.
                When given, slice writes go through fault-wrapped tables and
                inserts that stay lost are recorded in its fault log.  Every
                insert is verified and re-issued on loss either way, so the
                partition invariant survives silent write failures.

        Raises:
            ValueError: when the requested guarantee is infeasible on this
                switch (see :func:`shadow_capacity_for`).
        """
        self.timing = timing
        self.config = config if config is not None else HermesConfig()
        self.injector = injector
        self._clock = Clock()
        self._degraded_until: Optional[float] = None
        shadow_capacity = (
            self.config.shadow_capacity
            if self.config.shadow_capacity is not None
            else shadow_capacity_for(timing, self.config.guarantee)
        )
        if shadow_capacity >= timing.capacity:
            raise ValueError(
                f"shadow capacity {shadow_capacity} leaves no room for the "
                f"main table on {timing.name} (capacity {timing.capacity})"
            )
        self.tcam = CarvedTcam(
            timing,
            [
                SliceConfig("shadow", shadow_capacity, lookup_priority=10),
                SliceConfig(
                    "main", timing.capacity - shadow_capacity, lookup_priority=1
                ),
            ],
            rng=rng,
        )
        # The tables every Hermes component writes through.  With an
        # injector they are fault-wrapped proxies over the carved slices
        # (recarve mutates the slice in place, so the wrappers stay valid
        # across reconfiguration); without one they are the slices
        # themselves and no fault machinery touches the hot path.
        if injector is not None:
            clock = lambda: self._now  # noqa: E731
            self._shadow_table = FaultyTable(
                self.tcam.slice("shadow"), injector, clock=clock
            )
            self._main_table = FaultyTable(
                self.tcam.slice("main"), injector, clock=clock
            )
        else:
            self._shadow_table = self.tcam.slice("shadow")
            self._main_table = self.tcam.slice("main")
        self.partition_map = PartitionMap()
        # The Rule Manager owns the main table's overlap index and every
        # verified write, Algorithm 1's included (RuleManager.install).
        # DetectOverlap reads the index (one probe per prefix length in use
        # plus one key-list range) instead of a scan of the whole table
        # (the reason Fig 15's insertion-side cost stays flat).
        self.rule_manager = RuleManager(
            shadow=self.shadow,
            main=self.main,
            partition_map=self.partition_map,
            trigger=self.config.build_trigger(),
            epoch=self.config.epoch,
            optimize=self.config.optimize_migration,
            atomic=self.config.atomic_migration,
            fault_log=injector.log if injector is not None else None,
        )
        bucket = None
        if self.config.admission_control:
            bucket = TokenBucket(rate=self.supported_rate(), burst=shadow_capacity)
        self.gate_keeper = GateKeeper(
            predicate=predicate,
            bucket=bucket,
            lowest_priority_fastpath=self.config.lowest_priority_fastpath,
        )
        self.violations = 0
        self.near_violations = 0
        self.guaranteed_inserts = 0
        self.degraded_inserts = 0
        self.auto_tuner = None
        if self.config.auto_tune:
            trigger = self.rule_manager.trigger
            corrector = getattr(trigger, "corrector", None)
            if not isinstance(corrector, SlackCorrector):
                raise ValueError(
                    "auto_tune requires the 'slack' corrector with the "
                    "predictive trigger"
                )
            from .autotune import SlackAutoTuner

            self.auto_tuner = SlackAutoTuner(corrector)
            self._pressure_snapshot = 0
            self._last_tune_time = 0.0

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def _now(self) -> float:
        """The installer's virtual-time high-water mark (kernel clock)."""
        return self._clock.now

    @property
    def shadow(self) -> TcamTable:
        """The small guaranteed-insertion slice (fault-wrapped if injecting)."""
        return self._shadow_table

    @property
    def main(self) -> TcamTable:
        """The large best-effort slice (fault-wrapped if injecting)."""
        return self._main_table

    def _table(self, slice_name: str) -> TcamTable:
        """The write path for a slice located via ``tcam.find_rule``."""
        return self._shadow_table if slice_name == "shadow" else self._main_table

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def enter_degraded(self, now: float, duration: Optional[float] = None) -> None:
        """Suspend guarantees for ``duration`` seconds (default:
        :data:`DEGRADED_WINDOW`).

        Wired to the resilient channel's ``on_breaker_open`` callback: when
        the switch stops acking, pretending the shadow path still meets its
        latency bound would be a lie — new guarantee-eligible rules demote
        to best-effort instead, with the honest ``"degraded"`` reason.
        """
        window = duration if duration is not None else DEGRADED_WINDOW
        until = now + window
        if self._degraded_until is None or until > self._degraded_until:
            self._degraded_until = until
        if self.injector is not None:
            self.injector.log.record("degraded-enter", time=now, until=until)

    def is_degraded(self, now: float) -> bool:
        """True while guarantees are suspended."""
        if self._degraded_until is None:
            return False
        if now >= self._degraded_until:
            self._degraded_until = None
            return False
        return True

    def supported_rate(self) -> float:
        """Equation 2: the insertion rate Hermes commits to supporting."""
        shadow_capacity = self.shadow.capacity
        migration_time = estimate_migration_time(
            self.timing,
            rules_to_move=shadow_capacity,
            main_occupancy=min(self.main.capacity // 2, self.main.occupancy + 256),
        )
        return max_insertion_rate(
            shadow_capacity,
            migration_time,
            expected_partitions=self.partition_map.expected_partitions(),
        )

    def reconfigure_guarantee(self, spec: GuaranteeSpec) -> None:
        """Re-size the shadow slice for a new guarantee (ModQoSConfig).

        The shadow is first drained into the main table, then re-carved to
        the size the new guarantee allows; the admission bucket is rebuilt
        for the new sustainable rate.

        Raises:
            ValueError: when the new guarantee is infeasible on this switch.
        """
        new_capacity = shadow_capacity_for(self.timing, spec)
        if new_capacity >= self.timing.capacity:
            raise ValueError("guarantee leaves no room for the main table")
        self.rule_manager.migrate(self._now)
        if new_capacity <= self.shadow.capacity:
            # Shrink the shadow before growing the main slice so the carve
            # never transiently exceeds the physical capacity.
            self.tcam.recarve("shadow", new_capacity)
            self.tcam.recarve("main", self.timing.capacity - new_capacity)
        else:
            self.tcam.recarve("main", self.timing.capacity - new_capacity)
            self.tcam.recarve("shadow", new_capacity)
        self.config.guarantee = spec
        if self.config.admission_control:
            self.gate_keeper.bucket = TokenBucket(
                rate=self.supported_rate(), burst=new_capacity
            )

    def set_predicate(self, predicate: MatchPredicate) -> None:
        """Swap the guarantee-selection predicate (ModQoSMatch)."""
        self.gate_keeper.predicate = predicate

    def violation_rate(self) -> float:
        """Fraction of guaranteed-path inserts that broke the guarantee."""
        if self.guaranteed_inserts == 0:
            return 0.0
        return self.violations / self.guaranteed_inserts

    def violation_percentage(self) -> float:
        """Percentage of guarantee-*eligible* inserts Hermes failed to honour.

        Counts both guaranteed-path inserts that exceeded the latency bound
        and eligible inserts forced onto the best-effort path because the
        shadow was full or the bucket empty (the Fig 12(a) metric).
        """
        counts = self.gate_keeper.reason_counts
        diverted = counts.get("shadow-full", 0) + counts.get("rate-limited", 0)
        eligible = self.guaranteed_inserts + diverted
        if eligible == 0:
            return 0.0
        return 100.0 * (self.violations + diverted) / eligible

    # ------------------------------------------------------------------
    # RuleInstaller interface
    # ------------------------------------------------------------------
    def advance_time(self, now: float) -> float:
        """Drive the Rule Manager's clock; returns background seconds used."""
        self._clock.advance_to(max(self._clock.now, now))
        background = self.rule_manager.tick(self._now)
        if self.auto_tuner is not None:
            window = 4 * self.rule_manager.epoch
            if self._now - self._last_tune_time >= window:
                self._last_tune_time = self._now
                pressure = (
                    self.violations
                    + self.near_violations
                    + self.gate_keeper.reason_counts.get("shadow-full", 0)
                    + getattr(self.rule_manager.trigger, "watermark_fires", 0)
                )
                self.auto_tuner.observe_window(pressure - self._pressure_snapshot)
                self._pressure_snapshot = pressure
        return background

    def apply(self, flow_mod: FlowMod) -> FlowModResult:
        """Apply one control-plane action through Hermes."""
        if flow_mod.command is FlowModCommand.ADD:
            return self._apply_add(flow_mod.rule)
        if flow_mod.command is FlowModCommand.DELETE:
            return self._apply_delete(flow_mod.rule_id)
        return self._apply_modify(flow_mod)

    def lookup(self, key: int) -> Optional[Rule]:
        """Sequential lookup: shadow first, then main (Section 3)."""
        hit = self.shadow.lookup(key)
        if hit is not None:
            return hit
        return self.main.lookup(key)

    def occupancy(self) -> int:
        """Rules physically installed across both slices."""
        return self.tcam.total_occupancy

    def tables(self):
        """Both physical slices, for the ruleset verifier.

        Exposes the same tables the data plane probes, in probe order —
        independent of the partition map, so a verifier consuming this
        seam checks what the hardware would actually do.
        """
        return {"shadow": self.shadow.rules(), "main": self.main.rules()}

    def shift_count(self) -> int:
        """Cumulative entry shifts across both slices."""
        return self.shadow.stats.total_shifts + self.main.stats.total_shifts

    def gauges(self):
        """Shadow/main occupancy and the admission bucket's token level."""
        readings = {
            "shadow.occupancy": float(self.shadow.occupancy),
            "main.occupancy": float(self.main.occupancy),
        }
        bucket = self.gate_keeper.bucket
        if bucket is not None:
            readings["bucket.tokens"] = float(bucket.tokens)
        return readings

    def verify(self, reference=None, include_warnings: bool = False):
        """Run the ruleset verifier against the live pair.

        Convenience wrapper over
        :func:`repro.analysis.verifier.verify_partition`; returns the
        violations found (empty list = the pair provably behaves like one
        priority-ordered table).
        """
        from ..analysis.verifier import verify_partition

        return verify_partition(
            self.shadow,
            self.main,
            reference=reference,
            include_warnings=include_warnings,
        )

    def prefill_table(self) -> TcamTable:
        """Background rules belong in the main slice from the start.

        This is where the Rule Manager would have migrated them anyway;
        installing them directly avoids polluting violation statistics with
        warm-up traffic.
        """
        return self.tcam.slice("main")

    # ------------------------------------------------------------------
    # ADD
    # ------------------------------------------------------------------
    def _apply_add(self, rule: Rule) -> FlowModResult:
        # The Section 4.2 fastpath sends bottom-priority rules straight to
        # the main table because appends are cheap — but "cheap" still
        # grows with occupancy, so only offer the fastpath while a main
        # append fits the guarantee.
        append_cost = self.timing.insertion_latency(self.main.occupancy, shifts=0)
        fastpath_safe = append_cost <= self.config.guarantee.insertion_latency
        decision = self.gate_keeper.decide(
            rule,
            self._now,
            shadow_has_room=not self.shadow.is_full,
            main_lowest_priority=(
                self.main.lowest_priority if fastpath_safe else None
            ),
            degraded=self.is_degraded(self._now),
        )
        if decision.reason == "degraded":
            self.degraded_inserts += 1
        tracer = get_tracer()
        if not decision.use_shadow:
            if tracer.enabled:
                # Diverted inserts skip Algorithm 1: no partition cost.
                tracer.event(
                    "hermes.gatekeeper",
                    time=self._now,
                    category="hermes",
                    reason=decision.reason,
                    use_shadow=False,
                    latency=0.0,
                    rule=rule.rule_id,
                )
            # Diverted inserts are still offered load: the predictor must
            # see them or a full shadow looks like a quiet workload.
            self.rule_manager.note_arrival(1)
            result_latency = self.rule_manager.insert_verified(
                self.main, rule, self._now
            )
            # A higher-priority rule landing in the main table can newly
            # dominate lower-priority rules resident in the shadow — the
            # mirror image of the Figure 4 hazard.  Re-partition those
            # shadow rules against the updated main table.
            repartition_latency = self._repartition_shadow_against(rule)
            return FlowModResult(
                latency=result_latency + repartition_latency,
                installed_rule_ids=(rule.rule_id,),
                used_guaranteed_path=False,
            )

        gatekeeper = 0.0

        def charge(blockers: List[Rule], outcome: PartitionOutcome) -> float:
            # Pure GateKeeper + Algorithm 1 cost; the TCAM writes add on
            # top of it.
            nonlocal gatekeeper
            gatekeeper = PARTITION_LATENCY_BUDGET * max(32, 4 * len(blockers))
            if tracer.enabled:
                tracer.event(
                    "hermes.gatekeeper",
                    time=self._now,
                    category="hermes",
                    reason=decision.reason,
                    use_shadow=True,
                    latency=gatekeeper,
                    blockers=len(blockers),
                    fragments=len(outcome.fragments),
                    rule=rule.rule_id,
                )
            return gatekeeper

        outcome, latency = self.rule_manager.install(
            rule, self._now, on_partition=charge
        )
        self.rule_manager.note_arrival(max(1, len(outcome.fragments)))
        self.guaranteed_inserts += 1
        if latency > self.config.guarantee.insertion_latency:
            self.violations += 1
        elif latency > 0.5 * self.config.guarantee.insertion_latency:
            # Near-misses: no violation, but the auto-tuner treats a
            # latency this close to the bound as provisioning pressure.
            self.near_violations += 1
        return FlowModResult(
            latency=latency,
            installed_rule_ids=tuple(
                fragment.rule_id for fragment in outcome.fragments
            ),
            used_guaranteed_path=True,
            gatekeeper=gatekeeper,
        )

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def _apply_delete(self, rule_id: int) -> FlowModResult:
        latency = 0.0
        if self.partition_map.is_partitioned(rule_id):
            # The logical rule lives as fragments (possibly zero, when it
            # was subsumed on arrival): delete every live fragment.
            latency = self._delete_fragments(rule_id, latency)
            self.partition_map.forget(rule_id)
            return FlowModResult(latency=latency)
        if self.tcam.find_rule(rule_id) is None:
            raise KeyError(f"Hermes: no rule #{rule_id} installed")
        latency += self._delete_physical(rule_id)
        return FlowModResult(latency=latency)

    def _delete_physical(self, rule_id: int) -> float:
        """Remove one physical entry, restoring any rules it blocked.

        Figure 6: deleting a main-table rule un-partitions the shadow rules
        it had forced cuts on — their fragments are removed and the
        originals re-inserted (re-partitioned against what is left).  This
        applies to *every* main-table removal, including fragments that
        migrated into the main table and later act as blockers themselves.
        """
        located = self.tcam.find_rule(rule_id)
        if located is None:
            return 0.0
        slice_name, _rule = located
        latency = self._table(slice_name).delete(rule_id).latency
        if slice_name == "main":
            # Figure 6's un-partition is delete-the-fragments *and*
            # add-back-the-original; the stale fragments must go first or
            # they linger as untracked duplicates.
            for origin_id in self.partition_map.origins_blocked_by(rule_id):
                latency = self._delete_fragments(origin_id, latency)
            for original in self.partition_map.forget_blocker(rule_id):
                latency += self.rule_manager.install(original, self._now)[1]
        return latency

    def _delete_fragments(self, origin_id: int, latency: float) -> float:
        """Delete every live fragment of a partitioned logical rule.

        Returns ``latency`` plus the seconds spent.  The partition map
        still tracks the rule afterwards; the caller forgets it.
        """
        for fragment_id in self.partition_map.fragment_ids(origin_id):
            latency += self._delete_physical(fragment_id)
        return latency

    def _repartition_shadow_against(self, new_main_rule: Rule) -> float:
        """Re-cut shadow rules newly dominated by a main-table arrival.

        For every logical rule whose shadow presence the new main rule now
        shadows (overlap + strictly lower priority), the whole fragment
        family is lifted out of the shadow and re-partitioned against the
        updated main table, exactly as if it were arriving fresh.
        """
        latency = 0.0
        dominated_origins = []
        for resident in self.shadow.rules():
            if new_main_rule.priority > resident.priority and new_main_rule.overlaps(
                resident
            ):
                origin = (
                    resident.origin_id
                    if resident.origin_id is not None
                    else resident.rule_id
                )
                if origin not in dominated_origins:
                    dominated_origins.append(origin)
        for origin_id in dominated_origins:
            if self.partition_map.is_partitioned(origin_id):
                original = self.partition_map.original(origin_id)
                latency = self._delete_fragments(origin_id, latency)
                self.partition_map.forget(origin_id)
            else:
                original = self.shadow.get(origin_id)
                latency += self.shadow.delete(origin_id).latency
            latency += self.rule_manager.install(original, self._now)[1]
        return latency

    # ------------------------------------------------------------------
    # MODIFY
    # ------------------------------------------------------------------
    def _apply_modify(self, flow_mod: FlowMod) -> FlowModResult:
        rule_id = flow_mod.rule_id
        original = self._logical_rule(rule_id)
        if original is None:
            raise KeyError(f"Hermes: no rule #{rule_id} installed")
        if flow_mod.new_priority is None and flow_mod.new_match is None:
            # Action-only modification: constant-time in-place rewrites of
            # every physical entry of the logical rule (Section 2.1.1).
            latency = 0.0
            for slice_name, physical_id in self._physical_entries(rule_id):
                latency += (
                    self._table(slice_name)
                    .modify(physical_id, action=flow_mod.new_action)
                    .latency
                )
            if self.partition_map.is_partitioned(rule_id):
                refreshed = Rule(
                    match=original.match,
                    priority=original.priority,
                    action=flow_mod.new_action,
                    rule_id=original.rule_id,
                    origin_id=original.origin_id,
                )
                self.partition_map.update_original(rule_id, refreshed)
            return FlowModResult(latency=latency, installed_rule_ids=(rule_id,))
        # Match or priority changes reposition TCAM entries: the paper
        # converts them into delete + insert (Section 4.1).
        replacement = Rule(
            match=(
                flow_mod.new_match if flow_mod.new_match is not None else original.match
            ),
            priority=(
                flow_mod.new_priority
                if flow_mod.new_priority is not None
                else original.priority
            ),
            action=(
                flow_mod.new_action
                if flow_mod.new_action is not None
                else original.action
            ),
            rule_id=original.rule_id,
            origin_id=original.origin_id,
        )
        delete_result = self._apply_delete(rule_id)
        add_result = self._apply_add(replacement)
        return FlowModResult(
            latency=delete_result.latency + add_result.latency,
            installed_rule_ids=add_result.installed_rule_ids,
            used_guaranteed_path=add_result.used_guaranteed_path,
            gatekeeper=add_result.gatekeeper,
        )

    def _logical_rule(self, rule_id: int) -> Optional[Rule]:
        if self.partition_map.is_partitioned(rule_id):
            return self.partition_map.original(rule_id)
        located = self.tcam.find_rule(rule_id)
        return located[1] if located is not None else None

    def _physical_entries(self, rule_id: int):
        """Yield (slice_name, physical_rule_id) for one logical rule."""
        if self.partition_map.is_partitioned(rule_id):
            for fragment_id in self.partition_map.fragment_ids(rule_id):
                located = self.tcam.find_rule(fragment_id)
                if located is not None:
                    yield located[0], fragment_id
        else:
            located = self.tcam.find_rule(rule_id)
            if located is not None:
                yield located[0], rule_id

    def __repr__(self) -> str:
        return (
            f"HermesInstaller({self.timing.name!r}, shadow="
            f"{self.shadow.occupancy}/{self.shadow.capacity}, main="
            f"{self.main.occupancy}/{self.main.capacity}, "
            f"violations={self.violations})"
        )
