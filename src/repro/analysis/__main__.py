"""Command-line front end of the static-analysis layer.

Four subcommands::

    python -m repro.analysis verify SNAPSHOT.json     # check a table snapshot
    python -m repro.analysis verify OLD.json NEW.json # localize a corruption
    python -m repro.analysis lint [PATH ...]          # determinism lint
    python -m repro.analysis scenario [--out F]       # canned churn + verify
    python -m repro.analysis races SCENARIO           # schedule-order races

``lint`` runs the determinism lint over the given paths.  ``races`` runs
a canned scenario (``fig01``, ``fig08``, ``chaos``) — or, given a ``.py``
path, a fixture module exposing ``run(sanitizer)`` — under the race
sanitizer, the one schedule-order race detector, and reports every race
with its witness pair; exit 1 when any race is found.

``verify`` and ``scenario`` decide with the atomic-predicate engine behind
:func:`~repro.analysis.verifier.verify_partition`.  With two snapshot
arguments, ``verify`` treats them as captures of the *same* switch at two
instants: it verifies both, diffs them by rule id, and when the later one
is corrupt but the earlier clean, names the changed rules implicated in
the corruption.

``scenario`` drives a deterministic insert/delete churn through a real
:class:`HermesInstaller` (with live migrations) and a monolithic reference
table, snapshots both, and verifies the snapshot — the zero-setup way to
see the verifier pass, and, with ``--corrupt``, to see each checker catch a
seeded corruption.  Exit status: 0 clean, 1 violations/findings, 2 usage
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .lint import format_findings, lint_paths
from .snapshot import (
    diff_snapshots,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    snapshot_tables,
)
from .verifier import verify_partition

CORRUPTIONS = ("swap-priority", "drop-rule", "duplicate")


def build_scenario(seed: int = 7, steps: int = 80):
    """Run the canned churn scenario; returns (hermes, direct) installers."""
    from ..core.hermes import HermesConfig, HermesInstaller
    from ..switchsim.installer import DirectInstaller
    from ..switchsim.messages import FlowMod
    from ..tcam.prefix import Prefix
    from ..tcam.rule import Action, Rule
    from ..tcam.switch_models import dell_8132f, pica8_p3290

    rng = np.random.default_rng(seed)
    hermes = HermesInstaller(
        dell_8132f(),
        config=HermesConfig(
            shadow_capacity=24, admission_control=False, epoch=0.01
        ),
    )
    direct = DirectInstaller(pica8_p3290())
    installed: List[Rule] = []
    priorities = list(rng.permutation(10 * steps))
    now = 0.0
    for step in range(steps):
        now += 0.005
        hermes.advance_time(now)
        if installed and rng.random() < 0.25:
            victim = installed.pop(int(rng.integers(0, len(installed))))
            hermes.apply(FlowMod.delete(victim.rule_id))
            direct.apply(FlowMod.delete(victim.rule_id))
            continue
        length = int(rng.integers(8, 25))
        mask = ((1 << length) - 1) << (32 - length)
        network = ((10 << 24) | int(rng.integers(0, 1 << 24))) & mask
        rule = Rule.from_prefix(
            Prefix(network, length),
            int(priorities[step]) + 1,
            Action.output(int(rng.integers(1, 9))),
        )
        hermes.apply(FlowMod.add(rule))
        direct.apply(FlowMod.add(rule))
        installed.append(rule)
    # End with a burst the Rule Manager has not migrated yet, so the
    # snapshot captures the interesting state: live rules in *both*
    # slices, with Algorithm 1 partitioning in effect.
    for burst in range(6):
        length = int(rng.integers(10, 22))
        mask = ((1 << length) - 1) << (32 - length)
        network = ((10 << 24) | int(rng.integers(0, 1 << 24))) & mask
        rule = Rule.from_prefix(
            Prefix(network, length),
            int(priorities[steps + burst]) + 1,
            Action.output(int(rng.integers(1, 9))),
        )
        hermes.apply(FlowMod.add(rule))
        direct.apply(FlowMod.add(rule))
    return hermes, direct


def corrupt_snapshot(payload: dict, kind: str) -> dict:
    """Seed one deliberate corruption into a snapshot payload."""
    tables = payload["tables"]
    shadow = tables.setdefault("shadow", [])
    main = tables.setdefault("main", [])
    if kind == "swap-priority":
        # Plant a high-priority twin of a shadow rule in the main table
        # (or, with an empty shadow, a low-priority twin of a main rule in
        # the shadow): the cross-table inversion Algorithm 1 prevents.
        if shadow:
            twin = dict(shadow[0])
            twin["priority"] = shadow[0]["priority"] + 1000
            twin["rule_id"] = 10_000_000
            main.insert(0, twin)
        else:
            twin = dict(main[0])
            twin["priority"] = max(0, main[0]["priority"] - 1000)
            twin["rule_id"] = 10_000_000
            shadow.append(twin)
    elif kind == "drop-rule":
        # Lose one installed rule (the reference keeps it): a silent
        # write failure's end state.
        (shadow if shadow else main).pop(0)
    elif kind == "duplicate":
        # The same physical entry resident in both tables: a replayed
        # FlowMod without dedup.
        source = main[0] if main else shadow[0]
        shadow.append(dict(source))
    else:
        raise ValueError(f"unknown corruption {kind!r}; known: {CORRUPTIONS}")
    return payload


def _report(violations, stream=sys.stdout) -> int:
    errors = [violation for violation in violations if violation.is_error]
    for violation in violations:
        print(violation, file=stream)
    print(
        f"{len(errors)} error(s), {len(violations) - len(errors)} warning(s)",
        file=stream,
    )
    return 1 if errors else 0


def _verify_tables(snapshot, include_warnings: bool):
    """Verify one snapshot against its own reference table, if any."""
    return verify_partition(
        snapshot.shadow,
        snapshot.main,
        reference=snapshot.reference,
        include_warnings=include_warnings,
    )


def _verify_over_time(paths, snapshots, include_warnings: bool) -> int:
    """Two captures of the same switch: verify both, localize the break."""
    results = []
    for path, snapshot in zip(paths, snapshots):
        violations = _verify_tables(snapshot, include_warnings)
        errors = [violation for violation in violations if violation.is_error]
        results.append((path, violations, errors))
    delta = diff_snapshots(snapshots[0], snapshots[1])
    print(
        f"delta {paths[0]} -> {paths[1]}: "
        f"{len(delta.added)} added, {len(delta.removed)} removed, "
        f"{len(delta.moved)} moved, {len(delta.modified)} modified"
    )
    (older_path, older_violations, older_errors) = results[0]
    (newer_path, newer_violations, newer_errors) = results[1]
    if older_errors:
        print(f"corruption already present in {older_path}:")
        _report(older_violations)
        return 1
    print(f"{older_path}: clean")
    if not newer_errors:
        _report(newer_violations)
        print("no corruption in either capture; the delta is legitimate churn")
        return 0
    implicated = sorted(
        delta.changed_ids
        & {rule_id for violation in newer_errors for rule_id in violation.rule_ids}
    )
    print(f"corruption introduced between {older_path} and {newer_path}:")
    _report(newer_violations)
    if implicated:
        print(
            "implicated by the delta: "
            + ", ".join(f"rule #{rule_id}" for rule_id in implicated)
        )
    else:
        print(
            "no changed rule is directly implicated; the delta likely "
            "removed or moved an entry the survivors depended on"
        )
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for TCAM correctness and determinism.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify_cmd = commands.add_parser(
        "verify", help="verify one snapshot, or localize a break between two"
    )
    verify_cmd.add_argument(
        "snapshots",
        nargs="+",
        metavar="SNAPSHOT",
        help=(
            "one snapshot JSON file to verify, or two captures of the "
            "same switch (EARLIER LATER) to diff and localize"
        ),
    )
    verify_cmd.add_argument(
        "--include-warnings",
        action="store_true",
        help="also run the unreachable/shadowed-rule analyses",
    )

    lint_cmd = commands.add_parser(
        "lint", help="run the determinism lint over source trees"
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )

    races_cmd = commands.add_parser(
        "races",
        help="run a scenario under the schedule-order race sanitizer",
    )
    races_cmd.add_argument(
        "scenario",
        help=(
            "fig01, fig08, or chaos — or a path to a .py fixture "
            "module exposing run(sanitizer)"
        ),
    )

    scenario_cmd = commands.add_parser(
        "scenario",
        help="run a canned Hermes churn scenario, snapshot it, verify it",
    )
    scenario_cmd.add_argument("--seed", type=int, default=7)
    scenario_cmd.add_argument("--steps", type=int, default=80)
    scenario_cmd.add_argument(
        "--out", default=None, help="also write the snapshot JSON here"
    )
    scenario_cmd.add_argument(
        "--corrupt",
        choices=CORRUPTIONS,
        default=None,
        help="seed a deliberate corruption before verifying (must fail)",
    )

    args = parser.parse_args(argv)

    if args.command == "lint":
        try:
            findings = lint_paths(args.paths)
        except OSError as error:
            print(f"cannot lint: {error}", file=sys.stderr)
            return 2
        if findings:
            print(format_findings(findings))
        print(f"{len(findings)} finding(s) in {', '.join(args.paths)}")
        return 1 if findings else 0

    if args.command == "races":
        from .races import RaceSanitizer, run_fixture, run_scenario

        sanitizer = RaceSanitizer()
        if args.scenario.endswith(".py"):
            if not os.path.isfile(args.scenario):
                print(f"no fixture file {args.scenario!r}", file=sys.stderr)
                return 2
            run_fixture(args.scenario, sanitizer)
        else:
            try:
                sanitizer, _metrics = run_scenario(args.scenario, sanitizer)
            except ValueError as error:
                print(error, file=sys.stderr)
                return 2
        for race in sanitizer.races:
            print(race)
        for race in sanitizer.suppressed:
            print(
                f"suppressed: {race.key!r} at t={race.time:.6f} "
                f"({race.first.kind} vs {race.second.kind})"
            )
        summary = (
            f"{len(sanitizer.races)} race(s) over "
            f"{sanitizer.events_seen} dispatched event(s)"
        )
        if sanitizer.suppressed:
            summary += f", {len(sanitizer.suppressed)} suppressed"
        print(summary)
        return 1 if sanitizer.races else 0

    if args.command == "verify":
        if len(args.snapshots) > 2:
            print(
                f"verify takes one or two snapshots, got {len(args.snapshots)}",
                file=sys.stderr,
            )
            return 2
        snapshots = []
        for path in args.snapshots:
            try:
                snapshots.append(read_snapshot(path))
            except (OSError, ValueError, json.JSONDecodeError) as error:
                print(f"cannot load {path}: {error}", file=sys.stderr)
                return 2
        if len(snapshots) == 2:
            return _verify_over_time(
                args.snapshots, snapshots, args.include_warnings
            )
        return _report(_verify_tables(snapshots[0], args.include_warnings))

    # scenario
    if args.steps < 1:
        print(f"--steps must be at least 1, got {args.steps}", file=sys.stderr)
        return 2
    hermes, direct = build_scenario(seed=args.seed, steps=args.steps)
    payload = snapshot_tables(hermes.tables(), reference=direct.table)
    if args.corrupt is not None:
        payload = corrupt_snapshot(payload, args.corrupt)
    if args.out is not None:
        dump_snapshot(payload, args.out)
        print(f"snapshot written to {args.out}")
    snapshot = load_snapshot(payload)
    print(
        f"scenario: shadow={len(snapshot.shadow)} main={len(snapshot.main)} "
        f"reference={len(snapshot.reference or [])} rules"
        + (f" (corrupted: {args.corrupt})" if args.corrupt else "")
    )
    return _report(_verify_tables(snapshot, include_warnings=False))


if __name__ == "__main__":
    sys.exit(main())
