"""``python -m repro.obs`` — trace summarizer, differ, and demo scenario.

Subcommands:

* ``summary TRACE`` — the trace's guarantee-burn ledger (per-layer
  gatekeeper / queue / tcam / channel burn, violation windows, worst
  offenders; ``--guarantee-ms`` sets the budget), then gauge timelines and
  event counts.
* ``diff A B`` — two traces' ledgers side by side (actions, violations,
  per-layer mean/p99), then event counts and gauge peaks.
* ``scenario --out-dir DIR`` — run a small traced simulation and export
  it as a JSONL trace and Chrome trace-event JSON; what the CI ``obs``
  job round-trips.
* ``perf ...`` — the wall-clock performance observatory: scenario
  profiling, flamegraphs, and the ``hermes-bench/1`` regression
  comparator (see :mod:`repro.obs.perf.cli`).
"""

from __future__ import annotations

import argparse
import os
import sys

from .export import read_trace
from .summary import render_diff, render_summary, summarize


def _cmd_summary(args: argparse.Namespace) -> int:
    header, records = read_trace(args.trace)
    summary = summarize(header, records)
    print(render_summary(summary, guarantee=args.guarantee_ms * 1e-3))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    header_a, records_a = read_trace(args.trace_a)
    header_b, records_b = read_trace(args.trace_b)
    print(
        render_diff(
            summarize(header_a, records_a),
            summarize(header_b, records_b),
            args.trace_a,
            args.trace_b,
        )
    )
    return 0


def build_scenario(args: argparse.Namespace):
    """The ``scenario`` command's simulation, built but not run."""
    # Heavy imports stay local: `summary`/`diff` must work without numpy.
    from ..experiments.common import faulted_scenario

    return faulted_scenario(
        jobs=args.jobs, seed=args.seed, max_time=args.max_time,
        drop=args.drop, duplicate=0.02, scheme=args.scheme, switch=args.switch,
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .export import write_chrome_trace, write_trace
    from .tracer import RecordingTracer, use_tracer

    tracer = RecordingTracer(
        meta={
            "scenario": "obs-demo",
            "scheme": args.scheme,
            "switch": args.switch,
            "drop": args.drop,
            "seed": args.seed,
        }
    )
    with use_tracer(tracer):
        metrics = build_scenario(args).run()

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.jsonl")
    chrome_path = os.path.join(args.out_dir, "trace.chrome.json")
    write_trace(tracer, trace_path)
    write_chrome_trace(tracer, chrome_path)
    print(
        f"scenario: {args.scheme} on {args.switch}, drop={args.drop}, "
        f"{len(metrics.rits())} installs, {len(tracer.records)} trace records"
    )
    for path in (trace_path, chrome_path):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, diff, or generate hermes-trace/1 traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_summary = subparsers.add_parser("summary", help="summarize one trace")
    p_summary.add_argument("trace", help="path to a hermes-trace/1 JSONL file")
    p_summary.add_argument(
        "--guarantee-ms",
        type=float,
        default=5.0,
        help="guarantee for the burn ledger (default 5 ms)",
    )
    p_summary.set_defaults(func=_cmd_summary)

    p_diff = subparsers.add_parser("diff", help="compare two traces")
    p_diff.add_argument("trace_a", help="baseline trace")
    p_diff.add_argument("trace_b", help="candidate trace")
    p_diff.set_defaults(func=_cmd_diff)

    p_scenario = subparsers.add_parser(
        "scenario", help="run a small traced simulation and export its trace"
    )
    p_scenario.add_argument("--out-dir", required=True, help="output directory")
    p_scenario.add_argument("--scheme", default="hermes", help="installer scheme")
    p_scenario.add_argument(
        "--switch", default="pica8-p3290", help="switch-model registry key"
    )
    p_scenario.add_argument(
        "--drop", type=float, default=0.1, help="FlowMod drop rate"
    )
    p_scenario.add_argument("--jobs", type=int, default=6, help="job count")
    p_scenario.add_argument(
        "--max-time", type=float, default=6.0, help="sim horizon (s)"
    )
    p_scenario.add_argument("--seed", type=int, default=11, help="workload seed")
    p_scenario.set_defaults(func=_cmd_scenario)

    from .perf.cli import register as register_perf

    register_perf(subparsers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
