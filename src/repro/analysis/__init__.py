"""Analysis: result statistics, plus static analysis for TCAM correctness.

Two halves live here.  The *measurement* half (stats, result tables)
post-processes experiment output.  The *static-analysis* half
([docs/analysis.md](../../../docs/analysis.md)) checks the system itself:
the ruleset verifier proves or refutes the shadow+main ≡ monolithic
invariant over table snapshots, the determinism lint keeps
nondeterminism hazards out of the simulation paths, and SimRace — the
dynamic :class:`RaceSanitizer` — reports the schedule-order races a run
exercises: outcomes that depend on the kernel's insertion-order ``seq``
tie-break.
"""

from .ap import (
    build_universe,
    find_duplicate_entries,
    lookup_order,
)
from .lint import (
    LintFinding,
    format_findings,
    lint_file,
    lint_paths,
    lint_source,
)
from .pragmas import PragmaIndex, clear_pragma_cache, file_pragmas
from .races import (
    SCHEDULE_ORDER_RACE,
    RaceReport,
    RaceSanitizer,
    RaceWitness,
    run_fixture,
    run_scenario,
)
from .snapshot import (
    SnapshotDelta,
    TableSnapshot,
    diff_snapshots,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    snapshot_tables,
)
from .stats import increase_ratios, median_improvement, percentile_summary
from .tables import ExperimentResult, format_cell, render_table
from .verifier import verify_installer, verify_partition
from .violations import Violation

__all__ = [
    "SCHEDULE_ORDER_RACE",
    "ExperimentResult",
    "LintFinding",
    "PragmaIndex",
    "RaceReport",
    "RaceSanitizer",
    "RaceWitness",
    "SnapshotDelta",
    "TableSnapshot",
    "Violation",
    "clear_pragma_cache",
    "file_pragmas",
    "build_universe",
    "diff_snapshots",
    "dump_snapshot",
    "find_duplicate_entries",
    "format_cell",
    "format_findings",
    "increase_ratios",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_snapshot",
    "lookup_order",
    "median_improvement",
    "percentile_summary",
    "read_snapshot",
    "render_table",
    "run_fixture",
    "run_scenario",
    "snapshot_tables",
    "verify_installer",
    "verify_partition",
]
