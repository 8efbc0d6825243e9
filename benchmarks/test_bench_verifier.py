"""Benchmark: atomic-predicate vs symbolic verification on synthetic FIBs.

Sweeps table sizes over the same shadow+main pair with the shipped
verifier (the atomic-predicate engine) and the symbolic test oracle
(``tests/analysis/symbolic_oracle.py``), and writes a JSON artifact
(``BENCH_verifier.json``) CI can archive.  The symbolic engine's pairwise
scan is quadratic, so past a time budget its runtime is *projected* from
the measured curve and the run is skipped — that skip is the point: the AP
engine keeps verifying sizes the symbolic engine can no longer touch.

Environment knobs:
    ``BENCH_VERIFIER_SIZES``   comma-separated rule counts (default smoke
                               scale ``1000,2000,5000``).
    ``BENCH_VERIFIER_FULL``    set to 1 for the paper-scale sweep
                               (1k → 200k rules).
    ``BENCH_VERIFIER_BUDGET``  per-size symbolic time budget in seconds
                               (default 25).
    ``HERMES_BENCH_DIR``       where the artifact, history and index go
                               (default ``results/``).
"""

import os
import time

import numpy as np

from repro.analysis.verifier import verify_partition
from repro.obs.perf.bench import write_bench_artifact
from repro.tcam.rule import Action, Rule
from repro.tcam.ternary import TernaryMatch
from tests.analysis.symbolic_oracle import engines_agree, symbolic_verify_partition

SMOKE_SIZES = (1000, 2000, 5000)
FULL_SIZES = (1000, 5000, 10000, 50000, 100000, 200000)


def _sizes():
    if os.environ.get("BENCH_VERIFIER_SIZES"):
        return tuple(
            int(part) for part in os.environ["BENCH_VERIFIER_SIZES"].split(",")
        )
    if os.environ.get("BENCH_VERIFIER_FULL"):
        return FULL_SIZES
    return SMOKE_SIZES


def synthetic_fib(count, seed=7):
    """A clean shadow+main pair of ``count`` prefix rules total.

    Prefix lengths and networks follow a deterministic RNG; shadow rules
    (5% of the pair, the paper's carve proportion) take strictly higher
    priorities so the pair verifies clean and the benchmark measures the
    scan, not violation rendering.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(8, 25, size=count)
    offsets = rng.integers(0, 1 << 62, size=count)
    rules = []
    for index in range(count):
        length = int(lengths[index])
        mask = ((1 << length) - 1) << (32 - length)
        value = (int(offsets[index]) << (32 - length)) & mask
        rules.append(
            Rule(
                match=TernaryMatch(value=value, mask=mask, width=32),
                priority=index + 1,
                action=Action.output(1 + index % 7),
                rule_id=index + 1,
            )
        )
    shadow_count = max(1, count // 20)
    shadow = [
        rule.with_priority(1_000_000 + rule.priority)
        for rule in rules[:shadow_count]
    ]
    return shadow, rules[shadow_count:]


def _timed(verify, shadow, main, reference):
    """Time the *full* verification: errors, warnings, and the semantic
    diff against a reference — the shape the CLI runs on captured
    snapshots, and where the symbolic engine's region algebra goes
    quadratic."""
    start = time.perf_counter()
    violations = verify(shadow, main, reference=reference, include_warnings=True)
    return time.perf_counter() - start, violations


def run_sweep(sizes, budget):
    rows = []
    last_symbolic = None  # (size, seconds) anchor for quadratic projection
    for size in sizes:
        shadow, main = synthetic_fib(size)
        reference = shadow + main  # the pair's own lookup order
        ap_seconds, ap_violations = _timed(verify_partition, shadow, main, reference)
        row = {
            "rules": size,
            "ap_seconds": ap_seconds,
            "ap_violations": len(ap_violations),
            "symbolic_seconds": None,
            "symbolic_projected_seconds": None,
            "speedup": None,
        }
        projected = (
            last_symbolic[1] * (size / last_symbolic[0]) ** 2
            if last_symbolic
            else 0.0
        )
        if projected <= budget:
            symbolic_seconds, symbolic_violations = _timed(
                symbolic_verify_partition, shadow, main, reference
            )
            assert engines_agree(ap_violations, symbolic_violations)
            row["symbolic_seconds"] = symbolic_seconds
            row["speedup"] = symbolic_seconds / max(ap_seconds, 1e-9)
            last_symbolic = (size, symbolic_seconds)
        else:
            row["symbolic_projected_seconds"] = projected
        rows.append(row)
    return rows


def test_bench_verifier(benchmark):
    sizes = _sizes()
    budget = float(os.environ.get("BENCH_VERIFIER_BUDGET", "25"))
    rows = benchmark.pedantic(
        run_sweep, args=(sizes, budget), rounds=1, iterations=1
    )
    co_run_rows = [row for row in rows if row["speedup"] is not None]
    write_bench_artifact(
        "verifier",
        headline={
            "ap_seconds_largest": rows[-1]["ap_seconds"],
            "ap_rules_largest": rows[-1]["rules"],
            "speedup_largest_corun": (
                co_run_rows[-1]["speedup"] if co_run_rows else 0.0
            ),
        },
        payload={
            "sizes": list(sizes),
            "symbolic_budget_seconds": budget,
            "rows": rows,
        },
    )

    print()
    for row in rows:
        symbolic = (
            f"{row['symbolic_seconds']:.3f}s"
            if row["symbolic_seconds"] is not None
            else f"skipped (projected {row['symbolic_projected_seconds']:.0f}s)"
        )
        print(
            f"{row['rules']:>7} rules  ap={row['ap_seconds']:.3f}s  "
            f"symbolic={symbolic}"
        )

    co_run = [row for row in rows if row["speedup"] is not None]
    assert co_run, "symbolic never ran; lower the smallest size"
    # The headline claim: at the largest size both engines still run, AP is
    # at least an order of magnitude faster...
    assert co_run[-1]["speedup"] >= 10, co_run[-1]
    # ...and beyond the budget the symbolic engine drops out entirely while
    # AP keeps going (only asserted for the stock sweeps — a custom
    # BENCH_VERIFIER_SIZES may deliberately stay small).
    if not os.environ.get("BENCH_VERIFIER_SIZES"):
        assert any(row["symbolic_seconds"] is None for row in rows), (
            "symbolic engine finished every size inside its budget; raise "
            "the sweep ceiling"
        )
    assert all(row["ap_seconds"] < budget for row in rows)
