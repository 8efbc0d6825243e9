"""The Hermes benchmark: one command, three workloads, checked outputs.

    python3 hermesbench/run.py --workload geant-te --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, host
times calibrated to a reference pace (see ``pace.py``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer split (see ``layertrace.py``).  Every run prints one line per
metric, then a full JSON report, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Pinned before numpy loads, so the numbers measure the program and not
# the BLAS/OpenMP thread scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

WORKLOAD_NAMES = ("geant-te", "fattree-mapreduce", "bgp-fib")

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("flowmods_per_s", "1/s"),
    ("peak_rss_mib", "MiB"), ("rit_p50_ms", "ms"), ("rit_p99_ms", "ms"),
    ("guarantee_met_frac", "frac"),
)

PER_LAYER = (
    ("kernel.events", "count"), ("kernel.self_s", "s"),
    ("loop.self_s", "s"),
    ("fairshare.calls", "count"), ("fairshare.self_s", "s"),
    ("fairshare.flows_per_call", "count"),
    ("te_plan.calls", "count"), ("te_plan.self_s", "s"), ("te_plan.moves", "count"),
    ("controller.self_s", "s"),
    ("channel.self_s", "s"), ("channel.retries", "count"),
    ("agent.self_s", "s"), ("agent.queue_wait_sim_s", "s"),
    ("agent.busy_sim_s", "s"), ("agent.background_sim_s", "s"),
    ("hermes.self_s", "s"),
    ("rule_manager.self_s", "s"), ("rule_manager.migrations", "count"),
    ("rule_manager.rules_written", "count"), ("rule_manager.merged_away", "count"),
    ("gatekeeper.self_s", "s"), ("gatekeeper.admitted", "count"),
    ("gatekeeper.diverted", "count"), ("gatekeeper.admit_frac", "frac"),
    ("partition.self_s", "s"), ("partition.fragments", "count"),
    ("tcam.insert.self_s", "s"), ("tcam.delete.self_s", "s"),
    ("tcam.modify.self_s", "s"), ("tcam.lookup.self_s", "s"),
    ("tcam.writes", "count"), ("tcam.shifts", "count"),
    ("tcam.prefill_insert_s", "s"),
    ("verify_s", "s"), ("trace_overhead_frac", "frac"), ("trace.accounted_frac", "frac"),
)

# Span keys of the layers whose wall time the traced round attributes.
SPAN_KEYS = tuple(name[: -len(".self_s")] for name, _ in PER_LAYER if name.endswith(".self_s"))



def percentile(values, pct: int) -> float:
    """Nearest-rank percentile (no interpolation), in integer arithmetic."""
    ordered = sorted(values)
    rank = max(1, (pct * len(ordered) + 99) // 100)
    return ordered[rank - 1]


def read_commit(root: Path):
    """The checkout's commit from ``.git`` when there is one, else None."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def fingerprint() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cores": affinity,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "commit": read_commit(ROOT),
        "source_sha256": source_digest(SRC),
    }


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
class Round:
    """One pass over every instance of a workload."""

    def __init__(self, outcomes, layers, setup_layers):
        self.outcomes = outcomes
        self.layers = layers
        self.setup_layers = setup_layers

    @property
    def run_s(self) -> float:
        return sum(o.run_s for o in self.outcomes)

    @property
    def executed(self) -> int:
        return sum(len(o.responses) for o in self.outcomes)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(o.digest for o in self.outcomes).encode()).hexdigest()


def merge_stats(total: dict, part: dict) -> None:
    from workloads import add_counts

    for section, values in part.items():
        add_counts(total.setdefault(section, {}), values)


def run_round(workload, inputs, sampler=None, tracer=None, verify=False) -> Round:
    """Set up and run every instance once, timed by ``sampler`` when given;
    with ``tracer``, record spans."""
    from pace import plain_measure

    measure = sampler.measure if sampler is not None else plain_measure
    outcomes = []
    layers: dict = {}
    setup_layers: dict = {}
    for inp in inputs:
        gc.collect()
        system, setup_s, setup_pace = measure(workload.setup, inp)
        if tracer is not None:
            merge_stats(setup_layers, tracer.take())
            raised, run_s, run_pace = measure(tracer.call, "loop", workload.execute, system)
            merge_stats(layers, tracer.take())
        else:
            raised, run_s, run_pace = measure(workload.execute, system)
        outcome = workload.finish(system, raised)
        outcome.setup_s, outcome.run_s = setup_s, run_s
        outcome.setup_pace, outcome.run_pace = setup_pace, run_pace
        if verify:
            start = time.perf_counter()
            outcome.findings = workload.verify(system)
            outcome.verify_s = time.perf_counter() - start
        outcomes.append(outcome)
        del system  # before the next set-up, so peak RSS holds one instance
    return Round(outcomes, layers, setup_layers)


def traced_round(workload, inputs) -> Round:
    from layertrace import LayerTracer, install_layer_wraps

    tracer = LayerTracer()
    install_layer_wraps(tracer)
    try:
        return run_round(workload, inputs, tracer=tracer)
    finally:
        tracer.restore()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def sim_metrics(workload, first: Round, guarantee_s: float) -> dict:
    """Simulated-time metrics of one round, each with its sample count."""
    outcomes = first.outcomes
    rits = [r for o in outcomes for r in o.add_rits]
    attempted = sum(o.attempted for o in outcomes)
    met = sum(1 for o in outcomes for r in o.responses if r <= guarantee_s)
    report = {
        "rit_p50_ms": {"value": percentile(rits, 50) * 1e3, "unit": "ms", "n": len(rits)},
        "rit_p99_ms": {"value": percentile(rits, 99) * 1e3, "unit": "ms", "n": len(rits)},
        "guarantee_met_frac": {"value": met / attempted, "unit": "frac", "n": attempted},
    }
    if workload.has_flows:
        fcts = [f for o in outcomes for f in o.fcts]
        for pct in (50, 95):
            report[f"fct_p{pct}_s"] = {"value": percentile(fcts, pct), "unit": "s", "n": len(fcts)}
    if workload.has_jobs:
        jcts = [j for o in outcomes for j in o.jcts]
        for pct in (50, 75):
            report[f"jct_p{pct}_s"] = {"value": percentile(jcts, pct), "unit": "s", "n": len(jcts)}
    return report


def host_metrics(rounds) -> dict:
    """Host-time metrics over the untraced rounds, each time calibrated to
    the nominal pace (see ``pace.py``).  ``run_s`` is the time
    to run every instance once: the sum over instances of the median of
    that instance's calibrated run times."""
    from pace import calibrated

    setups = [calibrated(o.setup_s, o.setup_pace) for r in rounds for o in r.outcomes]
    run_s = sum(
        statistics.median(calibrated(o.run_s, o.run_pace) for o in repeats)
        for repeats in zip(*(r.outcomes for r in rounds))
    )
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "run_s": {"value": run_s, "unit": "s", "n": len(rounds)},
        "flowmods_per_s": {
            "value": rounds[0].executed / run_s, "unit": "1/s", "n": len(rounds),
        },
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB", "n": 1,
        },
    }


def layer_metrics(first: Round, traced, overheads) -> dict:
    """Per-layer metrics: medians over traced rounds for wall times, and
    the first round's public state for simulated counts."""
    from workloads import add_counts

    def median_of(section, key):
        return statistics.median(r.layers.get(section, {}).get(key, 0) for r in traced)

    values = {}
    for key in SPAN_KEYS:
        values[f"{key}.self_s"] = median_of("self_s", key)
    values["kernel.events"] = median_of("counters", "kernel.events")
    values["fairshare.calls"] = median_of("calls", "fairshare")
    flows = median_of("counters", "fairshare.flows")
    values["fairshare.flows_per_call"] = flows / values["fairshare.calls"] if values["fairshare.calls"] else 0.0
    values["te_plan.calls"] = median_of("calls", "te_plan")
    values["te_plan.moves"] = median_of("counters", "te_plan.moves")
    values["partition.fragments"] = median_of("counters", "partition.fragments")
    values["tcam.prefill_insert_s"] = statistics.median(
        r.setup_layers.get("self_s", {}).get("tcam.insert", 0.0) for r in traced
    )
    state: dict = {}
    for outcome in first.outcomes:
        add_counts(state, outcome.state)
    values.update(state)
    decided = state["gatekeeper.admitted"] + state["gatekeeper.diverted"]
    values["gatekeeper.admit_frac"] = state["gatekeeper.admitted"] / decided if decided else 0.0
    values["verify_s"] = sum(o.verify_s for o in first.outcomes)
    values["trace_overhead_frac"] = statistics.median(overheads)
    values["trace.accounted_frac"] = statistics.median(
        sum(r.layers.get("self_s", {}).values()) / r.run_s for r in traced
    )
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"hermesbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from pace import PaceSampler
    from workloads import GUARANTEE_S, WORKLOADS, add_counts

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    inputs = workload.inputs(args.seed)
    inputs_s = time.perf_counter() - started

    untraced, traced, overheads = [], [], []
    started = time.perf_counter()
    longest = 0.0
    with PaceSampler() as sampler:
        while True:
            round_started = time.perf_counter()
            untraced.append(run_round(workload, inputs, sampler, verify=not untraced))
            if args.trace:
                traced.append(traced_round(workload, inputs))
                overheads.append(traced[-1].run_s / untraced[-1].run_s - 1.0)
            # Start another round only if it can finish within --seconds,
            # even at the slowest speed seen so far.
            now = time.perf_counter()
            longest = max(longest, now - round_started)
            if (now - started) + longest > args.seconds:
                break

    first = untraced[0]
    checks = {
        "rounds_identical": all(r.digest == first.digest for r in untraced),
        "verify_clean": all(o.findings == 0 for o in first.outcomes),
    }
    if workload.has_flows:
        checks["flows_complete"] = all(o.completed == o.flows for o in first.outcomes)
    if traced:
        checks["trace_transparent"] = all(r.digest == first.digest for r in traced)
    sim = sim_metrics(workload, first, GUARANTEE_S)
    checks["rit_p50_under_guarantee"] = sim["rit_p50_ms"]["value"] < GUARANTEE_S * 1e3
    host = host_metrics(untraced)
    attempted = sum(o.attempted for o in first.outcomes)
    failed = sum(o.failed for o in first.outcomes)
    reasons: dict = {}
    for outcome in first.outcomes:
        add_counts(reasons, outcome.reasons)

    if args.trace:
        metrics = layer_metrics(first, traced, overheads)
    else:
        everything = {**host, **sim}
        metrics = {
            name: {"value": everything[name]["value"], "unit": unit}
            for name, unit in END_TO_END
        }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": len(inputs),
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "inputs_s": inputs_s,
        "digest": first.digest,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "flows": {"total": sum(o.flows for o in first.outcomes),
                  "completed": sum(o.completed for o in first.outcomes)},
        "gatekeeper_reasons": dict(sorted(reasons.items())),
        "end_to_end": {**host, **sim},
        "uncalibrated": {
            "setup_s": statistics.median(o.setup_s for r in untraced for o in r.outcomes),
            "run_s": statistics.median(r.run_s for r in untraced),
            "median_pace_us": statistics.median(sampler.bursts) * 1e6,
            "pace_samples": len(sampler.bursts),
        },
        "fingerprint": fingerprint(),
    }
    if args.trace:
        report["per_layer"] = metrics
    for name, metric in report["end_to_end"].items():
        print(f"{name:<22} {metric['value']:>14.6g} {metric['unit']:<5} n={metric['n']}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(report, sort_keys=True))
    correct = all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
