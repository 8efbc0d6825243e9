"""``repro.obs.perf`` — the wall-clock performance observatory.

Three concerns, one package:

* :mod:`~repro.obs.perf.profiler` — opt-in per-layer self time, in the
  benchmark's layer names, from wrappers installed on the layer entry
  points for the length of one profile (profiled = byte-identical runs).
* :mod:`~repro.obs.perf.burn` — the guarantee-burn ledger: SLO
  compliance, violation windows, and per-layer budget attribution over
  per-action breakdowns, read from a trace or from an untraced run.
* :mod:`~repro.obs.perf.bench` — the ``hermes-bench/1`` artifact layer
  every benchmark suite writes through, plus the regression comparator
  and the ``results/`` index/history generators.

:mod:`~repro.obs.perf.wallclock` is the repo's single audited seam to
the host clock — the determinism lint's ``wallclock-seam`` rule keeps
every other ``src/repro`` module off ``time.perf_counter`` and friends.
"""

from .bench import (
    BENCH_FORMAT,
    HeadlineDelta,
    bench_artifact,
    compare,
    load_artifact,
    machine_fingerprint,
    metric_direction,
    read_history,
    write_bench_artifact,
    write_index,
)
from .burn import (
    DEFAULT_GUARANTEE_SECONDS,
    GuaranteeBurnReport,
    LayerBurn,
    ViolationWindow,
    guarantee_burn,
)
from .cli import PERF_FORMAT
from .flame import trace_collapsed, write_collapsed
from .profiler import (
    LayerCost,
    ProfileReport,
    Profiler,
    layer_entry_points,
)
from .wallclock import timestamp, unix_time, wallclock

__all__ = [
    "BENCH_FORMAT",
    "DEFAULT_GUARANTEE_SECONDS",
    "GuaranteeBurnReport",
    "HeadlineDelta",
    "LayerBurn",
    "LayerCost",
    "PERF_FORMAT",
    "ProfileReport",
    "Profiler",
    "ViolationWindow",
    "bench_artifact",
    "compare",
    "guarantee_burn",
    "layer_entry_points",
    "load_artifact",
    "machine_fingerprint",
    "metric_direction",
    "read_history",
    "timestamp",
    "trace_collapsed",
    "unix_time",
    "wallclock",
    "write_bench_artifact",
    "write_collapsed",
    "write_index",
]
