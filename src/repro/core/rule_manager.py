"""The Rule Manager: predictive migration from the shadow to the main table.

Section 5 of the paper.  The Rule Manager watches the rule-arrival time
series and migrates the shadow table's content to the main table *before*
the shadow overflows.  Migration follows the four-step workflow of Figure 7:

1. copy the rules out of the shadow (and consult the main table);
2. optimize — rewrite the rules to minimize how many must be written.  Our
   optimizer exploits a structural fact: fragments created by Algorithm 1
   exist only to protect *cross-table* priority semantics, so once they move
   into the main table (where the TCAM disambiguates overlaps natively) each
   fragment family collapses back into its single original rule.  Sibling
   prefixes with identical action and priority are merged as well;
3. write the optimized rules into the main table.  With atomic migration
   (the paper's incremental update) replacements are inserted *before* the
   rules they supersede are deleted, so no packet ever falls in a gap; the
   delete-first ablation records the transient uncovered time instead;
4. empty the shadow table.

Migration timing (t_m) is charged to simulated background time: optimizer
cost grows super-linearly in the rules processed (the Figure 15(b) shape)
and every TCAM write costs the main table's occupancy-dependent latency.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..faults.table import TcamWriteError, verified_insert
from ..obs.tracer import get_tracer
from ..tcam.rule import Rule
from ..tcam.moveplan import conflicts_with_resident
from ..tcam.table import TcamTable
from ..tcam.ternary import TernaryMatch
from ..tcam.trie import PrefixRuleIndex
from .correction import Corrector
from .guarantees import OPTIMIZER_UNIT_COST, optimizer_seconds
from .partition import PartitionMap, PartitionOutcome, partition_new_rule
from .prediction import Predictor

#: Seconds per rule of the step-1 copy out of the shadow.
COPY_UNIT_COST = 1e-7


@dataclass(frozen=True)
class MigrationReport:
    """Accounting for one shadow-to-main migration.

    Attributes:
        started_at: simulation time the migration began.
        rules_copied: shadow rules read in step 1.
        rules_written: optimized rules written to the main table in step 3.
        rules_merged_away: rule count eliminated by the step-2 optimizer.
        duration: total t_m in seconds (optimizer + writes + shadow clear).
        optimizer_time: step-2 share of the duration.
        write_time: step-3 share of the duration.
        transient_gap_time: seconds during which some key was transiently
            uncovered — always 0 under atomic migration.
        rules_reissued: step-3 writes that had to be re-issued because the
            TCAM write failed (visibly or silently) under fault injection —
            always 0 without an injector.
    """

    started_at: float
    rules_copied: int
    rules_written: int
    rules_merged_away: int
    duration: float
    optimizer_time: float
    write_time: float
    transient_gap_time: float = 0.0
    rules_reissued: int = 0


class _IndexSync:
    """Table listener mirroring main-table changes into the overlap index."""

    def __init__(self, index: PrefixRuleIndex) -> None:
        self._index = index

    def rule_installed(self, rule: Rule) -> None:
        self._index.add(rule)

    def rule_removed(self, rule: Rule) -> None:
        self._index.discard(rule.rule_id)

    def rule_modified(self, old: Rule, new: Rule) -> None:
        self._index.discard(old.rule_id)
        self._index.add(new)


class MigrationTrigger(abc.ABC):
    """Policy deciding *when* to migrate (Section 5.1's alternatives)."""

    @abc.abstractmethod
    def should_migrate(self, occupancy: int, capacity: int) -> bool:
        """Decide on migration given the shadow's current fill level."""

    def observe_epoch(self, arrivals: float) -> None:
        """Feed one epoch's arrival count (predictive triggers learn here)."""


class PredictiveTrigger(MigrationTrigger):
    """Hermes's default: migrate when the *forecast* says overflow is near.

    The predicted next-epoch arrivals, inflated by the corrector, are added
    to the current occupancy; migration fires when the sum would exceed the
    shadow capacity.  Every forecast is at most the predictor's
    :meth:`~repro.core.prediction.Predictor.forecast_ceiling` and every
    corrector is monotone, so the forecast is only computed when the
    corrected ceiling could overflow; otherwise it cannot fire.
    """

    def __init__(
        self,
        predictor: Predictor,
        corrector: Corrector,
        high_watermark: float = 0.9,
    ) -> None:
        """``high_watermark`` is a forecast-independent backstop: a shadow
        filled beyond this fraction migrates even when the predictor sees a
        quiet series (bursty workloads can park the occupancy high between
        bursts while the per-epoch forecast reads near zero)."""
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError(f"high_watermark must be in (0, 1]: {high_watermark}")
        self.predictor = predictor
        self.corrector = corrector
        self.high_watermark = high_watermark
        # Watermark firings mean the forecast undershot badly enough that
        # the backstop had to act — the signal the auto-tuner learns from.
        self.watermark_fires = 0

    def observe_epoch(self, arrivals: float) -> None:
        """Update the predictor with a completed epoch's arrivals."""
        self.predictor.update(arrivals)

    def should_migrate(self, occupancy: int, capacity: int) -> bool:
        """Fire when the corrected forecast (or the watermark) overflows."""
        if occupancy == 0:
            return False
        corrected_ceiling = self.corrector.apply(self.predictor.forecast_ceiling())
        if (
            occupancy + corrected_ceiling > capacity
            and occupancy + self.corrector.apply(self.predictor.predict()) > capacity
        ):
            return True
        if occupancy >= self.high_watermark * capacity:
            self.watermark_fires += 1
            return True
        return False


class ThresholdTrigger(MigrationTrigger):
    """Hermes-SIMPLE (Section 8.5): migrate past a fixed fill threshold.

    A threshold of 0.0 migrates whenever anything is in the shadow —
    maximum safety, maximum migration churn (Figure 12).
    """

    def __init__(self, threshold: float) -> None:
        """``threshold`` is the fill fraction in [0, 1]."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold

    def should_migrate(self, occupancy: int, capacity: int) -> bool:
        """Fire once the fill fraction reaches the threshold."""
        if occupancy == 0:
            return False
        return occupancy >= self.threshold * capacity


class RuleManager:
    """Runs the migration workflow against a shadow/main table pair."""

    def __init__(
        self,
        shadow: TcamTable,
        main: TcamTable,
        partition_map: PartitionMap,
        trigger: MigrationTrigger,
        epoch: float = 0.05,
        optimize: bool = True,
        atomic: bool = True,
        fault_log=None,
    ) -> None:
        """Wire the manager to its tables.

        Args:
            shadow: the small guaranteed-insertion table.
            main: the large table rules migrate into.
            partition_map: Algorithm 1's mapping set, consulted to collapse
                fragment families during optimization.
            trigger: when-to-migrate policy.
            epoch: prediction interval in seconds.
            optimize: enable the step-2 rule minimizer (ablation flag).
            atomic: insert-before-delete consistency (ablation flag).
            fault_log: optional :class:`~repro.faults.log.FaultLog` to
                record re-issues and permanently lost writes into.
        """
        if epoch <= 0:
            raise ValueError(f"epoch must be positive, got {epoch}")
        self.shadow = shadow
        self.main = main
        self.partition_map = partition_map
        self.trigger = trigger
        self.epoch = epoch
        self.optimize = optimize
        self.atomic = atomic
        self.fault_log = fault_log
        self.reissued_writes = 0
        self.migrations: List[MigrationReport] = []
        self._arrivals_this_epoch = 0
        self._epoch_start = 0.0
        self._stranded: List[Rule] = []
        # The one overlap index over the main table, seeded from its rules
        # and kept in lock-step by the table's change listener (through a
        # fault-wrapped table it tracks what the slice really holds).  The
        # step-3 conflict check and Hermes's Algorithm 1 both read it.
        self.main_index = PrefixRuleIndex()
        for rule in main.rules():
            self.main_index.add(rule)
        main.add_listener(_IndexSync(self.main_index))

    # ------------------------------------------------------------------
    # Time and arrivals
    # ------------------------------------------------------------------
    def note_arrival(self, count: int = 1) -> None:
        """Record ``count`` physical rule insertions into the shadow table."""
        self._arrivals_this_epoch += count

    def tick(self, now: float) -> float:
        """Advance to ``now``; runs epoch bookkeeping and any migrations.

        Returns:
            Seconds of background work performed during this call.
        """
        background = 0.0
        # Close out completed epochs.  Long idle gaps are collapsed: the
        # trigger sees at most one trailing run of empty epochs so that a
        # quiet hour does not cost an hour of zero-feeding.
        pending_epochs = int((now - self._epoch_start) / self.epoch)
        if pending_epochs > 0:
            idle_epochs = max(0, pending_epochs - 1)
            self.trigger.observe_epoch(self._arrivals_this_epoch)
            for _ in range(min(idle_epochs, 8)):
                self.trigger.observe_epoch(0.0)
            self._arrivals_this_epoch = 0
            self._epoch_start += pending_epochs * self.epoch
            if self.trigger.should_migrate(self.shadow.occupancy, self.shadow.capacity):
                background += self.migrate(now).duration
        return background

    # ------------------------------------------------------------------
    # Migration (Figure 7)
    # ------------------------------------------------------------------
    def migrate(self, now: float) -> MigrationReport:
        """Run the four-step migration workflow immediately."""
        tracer = get_tracer()
        span = tracer.start_span(
            "hermes.migration", start=now, category="hermes"
        )
        shifts_before = (
            self.shadow.stats.total_shifts + self.main.stats.total_shifts
        )
        shadow_rules = self.shadow.rules()
        rules_copied = len(shadow_rules)
        copy_time = COPY_UNIT_COST * (rules_copied + self.main.occupancy)
        if rules_copied == 0:
            report = MigrationReport(
                started_at=now,
                rules_copied=0,
                rules_written=0,
                rules_merged_away=0,
                duration=copy_time,
                optimizer_time=0.0,
                write_time=0.0,
            )
            self.migrations.append(report)
            span.finish(end=now + report.duration, rules_copied=0)
            return report

        optimized, merged_away, optimizer_time = self._optimize(shadow_rules)
        self._stranded = []
        if self.atomic:
            # Steps 3 then 4: the shadow is emptied only after the main
            # table holds everything (migration-consistency, Section 5.2).
            write_time, gap_time, reissued, landed = self._write_to_main(
                optimized, now
            )
            clear_time = self.shadow.clear().latency
        else:
            # The naive ordering the paper warns against: clear first,
            # write second.  Every optimized rule is uncovered from the
            # clear until its own write lands; the summed uncovered time is
            # the consistency cost the atomic protocol eliminates.
            clear_time = self.shadow.clear().latency
            write_time, duplicate_gap, reissued, landed = self._write_to_main(
                optimized, now
            )
            gap_time = duplicate_gap + len(optimized) * clear_time
            cumulative = 0.0
            for rule_index in range(len(optimized)):
                per_write = write_time / max(1, len(optimized))
                cumulative += per_write
                gap_time += cumulative
        # Rules the main table had no room for stay behind in the shadow,
        # re-partitioned against the post-migration main table.
        clear_time += self._strand_dominators(landed)
        for rule in self._stranded:
            clear_time = self.install(rule, now, latency=clear_time)[1]
        self.reissued_writes += reissued
        report = MigrationReport(
            started_at=now,
            rules_copied=rules_copied,
            rules_written=len(optimized),
            rules_merged_away=merged_away,
            duration=copy_time + optimizer_time + write_time + clear_time,
            optimizer_time=optimizer_time,
            write_time=write_time,
            transient_gap_time=gap_time,
            rules_reissued=reissued,
        )
        self.migrations.append(report)
        span.finish(
            end=now + report.duration,
            rules_copied=rules_copied,
            rules_written=len(optimized),
            merged_away=merged_away,
            reissued=reissued,
            optimizer_time=optimizer_time,
            write_time=write_time,
            shifts=(
                self.shadow.stats.total_shifts
                + self.main.stats.total_shifts
                - shifts_before
            ),
        )
        return report

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def install(
        self,
        rule: Rule,
        now: float,
        latency: float = 0.0,
        on_partition: Optional[
            Callable[[List[Rule], PartitionOutcome], float]
        ] = None,
    ) -> Tuple[PartitionOutcome, float]:
        """Algorithm 1 and its writes: the one way a rule enters the shadow.

        Partitions ``rule`` against the higher-priority main-table rules
        overlapping it, writes the fragments into the shadow (into the main
        table once the shadow is full) and records the partition.
        ``on_partition(blockers, outcome)`` runs between the partition and
        the writes and returns seconds to charge ahead of them.

        Returns:
            The partition outcome, and ``latency`` plus the seconds spent.
        """
        blockers = self.main_index.blockers_for(rule)
        outcome = partition_new_rule(rule, blockers)
        if on_partition is not None:
            latency += on_partition(blockers, outcome)
        for fragment in outcome.fragments:
            table = self.main if self.shadow.is_full else self.shadow
            latency += self.insert_verified(table, fragment, now)
        self.partition_map.record(rule, outcome)
        return outcome, latency

    def insert_verified(self, table: TcamTable, rule: Rule, now: float) -> float:
        """Write ``rule`` into ``table`` and re-issue it until it lands.

        A write still lost after the retry budget is recorded in the fault
        log as ``install-lost``.  Without injected faults every write lands
        on the first attempt.  Returns the seconds of every attempt.
        """
        latency, ok = verified_insert(table, rule)
        if not ok and self.fault_log is not None:
            self.fault_log.record(
                "install-lost", time=now, target=table.name, rule_id=rule.rule_id
            )
        return latency

    def migrations_per_second(self, horizon: float) -> float:
        """Migration frequency over a horizon (the Fig 12(b) metric)."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return len(self.migrations) / horizon

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _optimize(self, shadow_rules: List[Rule]) -> Tuple[List[Rule], int, float]:
        """Step 2: minimize the rules that must be written to the main table.

        Returns (optimized rules, rules merged away, modelled CPU seconds).
        """
        if not self.optimize:
            time_cost = OPTIMIZER_UNIT_COST * len(shadow_rules)
            return list(shadow_rules), 0, time_cost

        # Collapse fragment families back into their originals: safe once
        # both live in the same table, where the TCAM itself disambiguates
        # overlapping priorities.
        by_origin: Dict[int, List[Rule]] = {}
        passthrough: List[Rule] = []
        for rule in shadow_rules:
            if rule.origin_id is not None and self.partition_map.is_partitioned(
                rule.origin_id
            ):
                by_origin.setdefault(rule.origin_id, []).append(rule)
            else:
                passthrough.append(rule)
        collapsed: List[Rule] = []
        for origin_id, fragments in by_origin.items():
            original = self.partition_map.original(origin_id)
            live_ids = self.partition_map.fragment_ids(origin_id)
            if original is not None and live_ids == {f.rule_id for f in fragments}:
                collapsed.append(original)
                self.partition_map.forget(origin_id)
            else:
                # Part of the family lives elsewhere (fragments that
                # overflowed into the main table); merge the shadow-resident
                # part but keep the absent ids tracked, or a later logical
                # delete would orphan them.
                elsewhere = live_ids - {f.rule_id for f in fragments}
                survivors = self._merge_family(origin_id, fragments, elsewhere)
                collapsed.extend(survivors)

        optimized = passthrough + collapsed
        merged_away = len(shadow_rules) - len(optimized)
        return (
            optimized,
            merged_away,
            optimizer_seconds(len(shadow_rules), self.main.occupancy),
        )

    def _merge_family(
        self, origin_id: int, fragments: List[Rule], keep_ids: Set[int] = frozenset()
    ) -> List[Rule]:
        """Merge sibling-prefix fragments of one partitioned logical rule.

        Fragments share a priority and an action by construction, so any
        sibling pair coalesces into its parent without changing semantics.
        The partition map's live-fragment set is updated to the merged ids
        plus ``keep_ids`` (family members not present in this batch).
        """
        non_prefix = [rule for rule in fragments if not rule.match.is_prefix]
        as_prefixes = {
            rule.match.to_prefix(): rule for rule in fragments if rule.match.is_prefix
        }
        changed = True
        while changed:
            changed = False
            for prefix in sorted(as_prefixes, key=lambda p: -p.length):
                if prefix not in as_prefixes or prefix.length == 0:
                    continue
                sibling = prefix.sibling()
                if sibling in as_prefixes:
                    keeper = as_prefixes.pop(prefix)
                    as_prefixes.pop(sibling)
                    parent_rule = keeper.with_match(
                        TernaryMatch.from_prefix(prefix.parent())
                    )
                    as_prefixes[prefix.parent()] = parent_rule
                    changed = True
        survivors = non_prefix + list(as_prefixes.values())
        self.partition_map.replace_fragments(
            origin_id,
            {rule.rule_id for rule in survivors} | set(keep_ids),
        )
        return survivors

    def _strand_dominators(self, landed: Dict[int, Rule]) -> float:
        """Return to the stranded set every rule this migration wrote above
        an overlapping stranded rule; returns the seconds the deletes took.

        Stranded rules go back into the emptied shadow.  Cut against a rule
        of their own batch that landed above them, they could need more
        fragments than the shadow holds (a stranded ``/0`` under a landed
        ``/8`` becomes eight).  Kept in the shadow beside that rule, they
        need only the cuts they had before the migration, so the stranded
        set fits in the shadow it came from.
        """
        latency = 0.0
        # The loop also visits the rules it appends: a returned rule can
        # itself sit below another rule of the batch.
        for stranded in self._stranded:
            for blocker in self.main_index.blockers_for(stranded):
                if landed.pop(blocker.rule_id, None) is not None:
                    latency += self.main.delete(blocker.rule_id).latency
                    self._stranded.append(blocker)
        return latency

    def _insert_main(self, rule: Rule, planned: bool) -> Tuple[float, bool]:
        """One main-table write attempt; returns (latency, visibly_ok).

        A visible write fault is absorbed here (its latency still counts);
        a *silent* one looks ok and is only caught by the post-batch
        verification pass.
        """
        try:
            return self.main.insert(rule, planned=planned).latency, True
        except TcamWriteError as error:
            return error.latency, False

    def _write_to_main(
        self, optimized: List[Rule], now: float = 0.0
    ) -> Tuple[float, float, int, Dict[int, Rule]]:
        """Step 3: write rules into the main table.

        Returns (write seconds, transient-gap seconds, writes re-issued,
        the rules that landed by id).  Rules whose id (or whose whole-match
        twin) already exists in the main table are refreshed via the atomic
        (insert-then-delete) or naive (delete-then-insert) protocol.

        Every write is checked against the table afterwards and lost ones
        are re-issued — Algorithm 1's partition invariant rests on migrated
        rules actually being in the main table, so a silently failed write
        left unrepaired would leave a shadow resident believing its blocker
        moved when it never arrived.  Without injected faults every write
        lands and the check costs one membership test per rule.
        """
        write_time = 0.0
        gap_time = 0.0
        reissued = 0
        # (rule that must be resident afterwards, planned placement, stale
        # duplicate to delete once the write verifies).  The atomic-refresh
        # replacement carries a FRESH rule_id, so verification must track
        # the replacement object, not the original id.
        expected: List[Tuple[Rule, bool, Optional[int]]] = []
        # A planned (zero-shift) placement only exists for rules that do
        # not dominate a resident main-table entry; dominating rules must
        # physically sit above their victims and pay the online shifting
        # cost (see repro.tcam.moveplan).
        conflicted_ids = {
            rule.rule_id
            for rule in conflicts_with_resident(optimized, self.main_index)
        }
        # Highest priority first: in the physical layout each subsequent
        # (lower-priority) rule appends below the previous ones, so the
        # batch incurs the minimum possible shifting.
        for rule in sorted(optimized, key=lambda r: -r.priority):
            planned = rule.rule_id not in conflicted_ids
            duplicate_id: Optional[int] = rule.rule_id if rule.rule_id in self.main else None
            if self.main.is_full and (duplicate_id is None or self.atomic):
                # The main table cannot absorb the rest of the batch; leave
                # the remaining rules in the shadow for a later migration.
                # An atomic refresh needs a free slot too (its replacement
                # lands before the stale twin leaves); stranded, the fresh
                # version keeps answering from the shadow, ahead of the
                # twin, so no packet sees a gap.
                self._stranded.append(rule)
                continue
            if duplicate_id is None:
                latency, _visible_ok = self._insert_main(rule, planned)
                write_time += latency
                expected.append((rule, planned, None))
                continue
            if self.atomic:
                # Incremental update: the replacement goes in first (under a
                # temporary id), the stale entry leaves second; every packet
                # matches one of the two throughout.  When the insert
                # visibly fails the stale entry is kept serving and its
                # deletion deferred until the re-issue lands — deleting
                # first would turn a failed refresh into a blackhole.
                replacement = rule.with_match(rule.match)
                insert_latency, visible_ok = self._insert_main(replacement, planned)
                write_time += insert_latency
                if visible_ok:
                    write_time += self.main.delete(duplicate_id).latency
                    expected.append((replacement, planned, None))
                else:
                    expected.append((replacement, planned, duplicate_id))
            else:
                delete_latency = self.main.delete(duplicate_id).latency
                insert_latency, _visible_ok = self._insert_main(rule, planned)
                write_time += insert_latency + delete_latency
                gap_time += insert_latency  # uncovered until re-inserted
                expected.append((rule, planned, None))
        landed: Dict[int, Rule] = {}
        for rule, planned, stale_id in expected:
            if rule.rule_id not in self.main:
                if self.main.is_full:
                    self._stranded.append(rule)
                    continue
                latency, ok = verified_insert(self.main, rule, planned=planned)
                write_time += latency
                reissued += 1
                if self.fault_log is not None:
                    self.fault_log.record(
                        "migration-reissue", time=now, target=self.main.name,
                        rule_id=rule.rule_id, recovered=ok,
                    )
                if not ok:
                    # Persistent failure: if a stale twin still serves, the
                    # logical rule stays covered; otherwise strand it back
                    # to the shadow so it is not silently lost.
                    if stale_id is None or stale_id not in self.main:
                        self._stranded.append(rule)
                    continue
            landed[rule.rule_id] = rule
            if stale_id is not None and stale_id in self.main:
                write_time += self.main.delete(stale_id).latency
        return write_time, gap_time, reissued, landed
