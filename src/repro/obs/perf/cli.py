"""The ``perf`` subcommand group of ``python -m repro.obs``.

* ``perf profile SCENARIO`` — run a canned scenario (fig01 / fig08 /
  chaos) untraced under the wall-clock profiler; print the per-layer
  calls and self times and the guarantee-burn ledger, read from the
  run's channel histories; optionally write the ``hermes-perf/2`` JSON
  artifact and a wall-clock flamegraph of nested ``loop;…`` stacks.
  A trace's ledger is ``python -m repro.obs summary TRACE``; traces come
  from ``python -m repro.obs scenario NAME``.
* ``perf flamegraph TRACE`` — sim-time collapsed stacks from a trace's
  span tree (load the output in speedscope or flamegraph.pl); a file
  that is missing or is not a trace is a usage error (exit 2).
* ``perf bench-compare A B`` — diff two ``hermes-bench/1`` artifacts;
  exits nonzero when a headline metric regressed past the threshold
  (CI's perf gate).
* ``perf index [DIR]`` — regenerate ``results/INDEX.md`` from the
  artifacts on disk.

Each command imports what it runs inside its function.
"""

from __future__ import annotations

import argparse
import json

#: Versioned profile-artifact format tag.
PERF_FORMAT = "hermes-perf/2"


def _cmd_profile(args: argparse.Namespace) -> int:
    from ...experiments.common import canned_scenario
    from ..summary import run_breakdowns
    from .bench import machine_fingerprint
    from .burn import guarantee_burn
    from .flame import write_collapsed
    from .profiler import Profiler

    simulation, meta = canned_scenario(args.scenario)
    profiler = Profiler(meta=meta).begin()
    try:
        metrics = profiler.run(simulation)
    finally:
        report = profiler.finish()
    burn = guarantee_burn(
        run_breakdowns(simulation.controller.channels.values()),
        guarantee=args.guarantee_ms * 1e-3,
    )
    print(report.render())
    print()
    print(burn.render())
    print()
    print(f"{len(metrics.rits())} installs")
    if args.out:
        document = {
            "format": PERF_FORMAT,
            "scenario": args.scenario,
            "fingerprint": machine_fingerprint(),
            "profile": report.to_dict(),
            "burn": burn.to_dict(),
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.flame:
        write_collapsed(report.collapsed(), args.flame)
        print(f"wrote {args.flame} (wall-clock collapsed stacks)")
    return 0


def _cmd_flamegraph(args: argparse.Namespace) -> int:
    from ..export import read_trace_arg
    from .flame import trace_collapsed, write_collapsed

    _header, records = read_trace_arg(args.trace)
    lines = trace_collapsed(records)
    if args.out:
        write_collapsed(lines, args.out)
        print(f"wrote {args.out} ({len(lines)} stacks, sim-time weights)")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench import compare, load_artifact

    artifact_a = load_artifact(args.baseline)
    artifact_b = load_artifact(args.candidate)
    deltas, notes = compare(artifact_a, artifact_b, threshold=args.threshold)
    print(
        f"comparing {args.baseline} -> {args.candidate} "
        f"(threshold {args.threshold * 100:.0f}%)"
    )
    for note in notes:
        print(f"  note: {note}")
    for delta in deltas:
        print(f"  {delta}")
    regressed = [delta for delta in deltas if delta.regressed]
    if regressed:
        print(f"FAIL: {len(regressed)} metric(s) regressed")
        return 1
    print(f"ok: {len(deltas)} metric(s) within threshold")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .bench import write_index

    path = write_index(args.dir)
    print(f"wrote {path}")
    return 0


def register(subparsers) -> None:
    """Mount the ``perf`` group on ``python -m repro.obs``'s subparsers."""
    from ...experiments.common import CANNED_SCENARIOS

    parser = subparsers.add_parser(
        "perf", help="wall-clock profiling, guarantee burn, bench artifacts"
    )
    perf_sub = parser.add_subparsers(dest="perf_command", required=True)

    p_profile = perf_sub.add_parser(
        "profile", help="profile a canned scenario (hotspots + burn)"
    )
    p_profile.add_argument(
        "scenario", choices=CANNED_SCENARIOS, help="canned scenario"
    )
    p_profile.add_argument(
        "--out", help="write the hermes-perf/2 JSON artifact here"
    )
    p_profile.add_argument(
        "--flame", help="write wall-clock collapsed stacks here"
    )
    p_profile.add_argument(
        "--guarantee-ms",
        type=float,
        default=5.0,
        help="guarantee for the burn ledger (default 5 ms)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_flame = perf_sub.add_parser(
        "flamegraph", help="sim-time collapsed stacks from a trace"
    )
    p_flame.add_argument("trace", help="path to a hermes-trace/1 JSONL file")
    p_flame.add_argument(
        "--out", help="write here instead of stdout"
    )
    p_flame.set_defaults(func=_cmd_flamegraph)

    p_compare = perf_sub.add_parser(
        "bench-compare",
        help="diff two hermes-bench/1 artifacts; nonzero exit on regression",
    )
    p_compare.add_argument("baseline", help="baseline artifact (A)")
    p_compare.add_argument("candidate", help="candidate artifact (B)")
    p_compare.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative slowdown before failing (default 0.2)",
    )
    p_compare.set_defaults(func=_cmd_bench_compare)

    p_index = perf_sub.add_parser(
        "index", help="regenerate INDEX.md from the artifacts on disk"
    )
    p_index.add_argument(
        "dir",
        nargs="?",
        default=None,
        help="results directory (default: results/ or $HERMES_BENCH_DIR)",
    )
    p_index.set_defaults(func=_cmd_index)
