"""``python -m repro.obs`` — trace summarizer, differ, and canned scenarios.

Subcommands (a trace file that is missing or is not a trace is a usage
error: a message on stderr and exit 2):

* ``summary TRACE`` — the trace's guarantee-burn ledger (per-layer
  gatekeeper / queue / tcam / channel burn, violation windows, worst
  offenders; ``--guarantee-ms`` sets the budget), then gauge timelines and
  event counts.
* ``diff A B`` — two traces' ledgers side by side (actions, violations,
  per-layer mean/p99), then event counts and gauge peaks.
* ``scenario NAME --out-dir DIR`` — run a canned scenario (fig01 /
  fig08 / chaos) traced and export it as a JSONL trace and Chrome
  trace-event JSON; the CI ``obs`` job round-trips ``chaos``.
* ``perf ...`` — the wall-clock performance observatory: scenario
  profiling, flamegraphs, and the ``hermes-bench/1`` regression
  comparator (see :mod:`repro.obs.perf.cli`).
"""

from __future__ import annotations

import argparse
import os
import sys

from .export import read_trace_arg
from .summary import render_diff, render_summary, summarize


def _cmd_summary(args: argparse.Namespace) -> int:
    header, records = read_trace_arg(args.trace)
    summary = summarize(header, records)
    print(render_summary(summary, guarantee=args.guarantee_ms * 1e-3))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    header_a, records_a = read_trace_arg(args.trace_a)
    header_b, records_b = read_trace_arg(args.trace_b)
    print(
        render_diff(
            summarize(header_a, records_a),
            summarize(header_b, records_b),
            args.trace_a,
            args.trace_b,
        )
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from ..experiments.common import canned_scenario
    from .export import write_chrome_trace, write_trace
    from .tracer import RecordingTracer, use_tracer

    simulation, meta = canned_scenario(args.scenario)
    tracer = RecordingTracer(meta=meta)
    with use_tracer(tracer):
        metrics = simulation.run()

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.jsonl")
    chrome_path = os.path.join(args.out_dir, "trace.chrome.json")
    write_trace(tracer, trace_path)
    write_chrome_trace(tracer, chrome_path)
    print(
        f"scenario {args.scenario}: {len(metrics.rits())} installs, "
        f"{len(tracer.records)} trace records"
    )
    for path in (trace_path, chrome_path):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from ..experiments.common import CANNED_SCENARIOS

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
        "scenario", help="run a canned scenario traced and export its trace"
    )
    p_scenario.add_argument(
        "scenario", choices=CANNED_SCENARIOS, help="canned scenario"
    )
    p_scenario.add_argument("--out-dir", required=True, help="output directory")
    p_scenario.set_defaults(func=_cmd_scenario)

    from .perf.cli import register as register_perf

    register_perf(subparsers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
