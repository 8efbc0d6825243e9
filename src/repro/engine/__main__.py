"""``python -m repro.engine`` — kernel-backed trace replay.

Subcommand ``replay`` reconstructs the workload recorded in a
``hermes-trace/1`` file and re-executes it against a chosen scheme and
switch model on the engine clock, writing a fresh trace that ``python -m
repro.obs diff`` compares stage-by-stage against the original::

    python -m repro.engine replay trace.jsonl \\
        --scheme hermes --switch dell-8132f --out replayed.jsonl
    python -m repro.obs diff trace.jsonl replayed.jsonl

A trace file that is missing or is not a trace is a usage error: a
message on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .replay import replay_file


def _cmd_replay(args: argparse.Namespace) -> int:
    hermes_config = None
    if args.scheme == "hermes":
        from ..experiments.common import default_hermes_config

        hermes_config = default_hermes_config()
    try:
        report = replay_file(
            args.trace,
            args.scheme,
            args.switch,
            out_path=args.out,
            hermes_config=hermes_config,
            seed=args.seed,
            prefill=args.prefill,
        )
    except (OSError, ValueError) as error:
        print(f"cannot replay {args.trace!r}: {error}", file=sys.stderr)
        return 2
    print(
        f"replayed {report.executed} FlowMods over {len(report.switches)} "
        f"switches against {report.scheme} on {report.switch_model} "
        f"({report.skipped} pre-trace deletes skipped)"
    )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.engine`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Replay recorded hermes-trace/1 workloads on the kernel.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    p_replay = subparsers.add_parser(
        "replay", help="re-execute a recorded trace against a scheme/switch"
    )
    p_replay.add_argument("trace", help="path to a hermes-trace/1 JSONL file")
    p_replay.add_argument(
        "--scheme", default="hermes", help="installer scheme to replay against"
    )
    p_replay.add_argument(
        "--switch", default="pica8-p3290", help="switch-model registry key"
    )
    p_replay.add_argument(
        "--out", default=None, help="write the replayed trace here"
    )
    p_replay.add_argument(
        "--seed", type=int, default=7, help="installer latency seed"
    )
    p_replay.add_argument(
        "--prefill",
        type=int,
        default=0,
        help="background rules per switch (match the original run's "
        "baseline_occupancy)",
    )
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
