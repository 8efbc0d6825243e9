"""Snapshot round-trip tests and end-to-end CLI checks.

The CLI tests run ``python -m repro.analysis`` in a subprocess — the same
invocation CI's analysis job uses — asserting the documented exit codes:
0 clean, 1 violations/findings, 2 usage errors.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.__main__ import CORRUPTIONS, build_scenario, corrupt_snapshot
from repro.analysis.snapshot import (
    diff_snapshots,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    rule_from_dict,
    rule_to_dict,
    snapshot_tables,
)
from repro.analysis.verifier import verify_partition
from repro.tcam.rule import Action, Rule
from repro.tcam.ternary import TernaryMatch
from tests.analysis.symbolic_oracle import (
    symbolic_verify_partition,
    violation_fingerprint,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURE = os.path.join(HERE, "fixtures", "nondeterminism_bad.py")
ENV_FIXTURE = os.path.join(HERE, "fixtures", "env_ordering_bad.py")


class TestRoundTrip:
    def test_rule_round_trips_through_dict(self):
        rule = Rule.from_prefix(
            "10.1.0.0/16", 40, Action.output(3), rule_id=7, origin_id=2
        )
        rebuilt = rule_from_dict(rule_to_dict(rule))
        assert rebuilt == rule

    def test_bit_pattern_and_every_action_round_trip(self):
        rules = [
            Rule(TernaryMatch.from_string("10*1"), 9, Action.drop(), rule_id=1),
            Rule(
                TernaryMatch.from_string("1***"),
                8,
                Action.to_controller(),
                rule_id=2,
            ),
            Rule(TernaryMatch.from_string("0*0*"), 7, Action.output(4), rule_id=3),
        ]
        for rule in rules:
            assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_snapshot_round_trips_through_json(self):
        shadow = [Rule.from_prefix("10.0.0.0/8", 90, Action.output(1), rule_id=1)]
        main = [Rule.from_prefix("10.1.0.0/16", 50, Action.output(2), rule_id=2)]
        payload = snapshot_tables(
            {"shadow": shadow, "main": main}, reference=shadow + main
        )
        snapshot = load_snapshot(json.loads(json.dumps(payload)))
        assert snapshot.shadow == shadow
        assert snapshot.main == main
        assert snapshot.reference == shadow + main

    def test_monolithic_snapshot_falls_back(self):
        rules = [Rule.from_prefix("10.0.0.0/8", 9, Action.output(1), rule_id=1)]
        snapshot = load_snapshot(snapshot_tables({"monolithic": rules}))
        assert snapshot.shadow == []
        assert snapshot.main == rules

    def test_file_round_trip(self, tmp_path):
        rules = [Rule.from_prefix("10.0.0.0/8", 9, Action.output(1), rule_id=1)]
        path = tmp_path / "snap.json"
        dump_snapshot(snapshot_tables({"main": rules}), str(path))
        assert read_snapshot(str(path)).main == rules

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            load_snapshot({"format": "something-else/9", "tables": {}})

    def test_unknown_action_rejected(self):
        data = rule_to_dict(
            Rule.from_prefix("10.0.0.0/8", 9, Action.output(1), rule_id=1)
        )
        data["action"] = "teleport"
        with pytest.raises(ValueError, match="action"):
            rule_from_dict(data)

    def test_width_mismatch_rejected(self):
        data = rule_to_dict(
            Rule.from_prefix("10.0.0.0/8", 9, Action.output(1), rule_id=1)
        )
        data["width"] = 16
        with pytest.raises(ValueError, match="width"):
            rule_from_dict(data)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestCli:
    def test_clean_scenario_exits_zero(self):
        result = run_cli("scenario", "--steps", "40")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 error(s)" in result.stdout

    @pytest.mark.parametrize(
        "corruption", ["swap-priority", "drop-rule", "duplicate"]
    )
    def test_each_corruption_is_caught(self, corruption):
        result = run_cli("scenario", "--steps", "40", "--corrupt", corruption)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "error" in result.stdout

    def test_scenario_snapshot_verifies_clean_offline(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        written = run_cli("scenario", "--steps", "40", "--out", path)
        assert written.returncode == 0, written.stdout + written.stderr
        verified = run_cli("verify", path)
        assert verified.returncode == 0, verified.stdout + verified.stderr

    def test_lint_flags_the_bad_fixture(self):
        result = run_cli("lint", FIXTURE)
        assert result.returncode == 1
        assert "unseeded-random" in result.stdout

    def test_lint_passes_on_shipped_sources(self):
        result = run_cli("lint", os.path.join(REPO_ROOT, "src", "repro"))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_missing_snapshot_is_a_usage_error(self):
        result = run_cli("verify", "/nonexistent/snapshot.json")
        assert result.returncode == 2

    def test_missing_lint_path_is_a_usage_error(self):
        # Exit 1 means "findings"; a mistyped path must not read as a catch.
        result = run_cli("lint", "MISSING.py")
        assert result.returncode == 2, result.stdout + result.stderr
        assert "cannot lint" in result.stderr and "MISSING.py" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_non_positive_steps_is_a_usage_error(self, steps):
        result = run_cli("scenario", "--steps", steps)
        assert result.returncode == 2, result.stdout + result.stderr
        assert "--steps must be at least 1" in result.stderr

    def test_engine_flag_is_a_usage_error(self):
        result = run_cli("scenario", "--engine", "ap")
        assert result.returncode == 2
        assert "unrecognized arguments: --engine" in result.stderr


def P(prefix, priority, port=1, rule_id=0):
    return Rule.from_prefix(prefix, priority, Action.output(port), rule_id=rule_id)


class TestSnapshotDiff:
    def pair(self):
        older = load_snapshot(
            snapshot_tables(
                {
                    "shadow": [P("10.0.0.0/16", 50, rule_id=1)],
                    "main": [
                        P("10.1.0.0/16", 40, rule_id=2),
                        P("10.2.0.0/16", 30, rule_id=3),
                    ],
                }
            )
        )
        newer = load_snapshot(
            snapshot_tables(
                {
                    "shadow": [P("10.3.0.0/16", 20, rule_id=4)],
                    "main": [
                        P("10.0.0.0/16", 50, rule_id=1),  # moved from shadow
                        P("10.1.0.0/16", 45, rule_id=2),  # priority changed
                    ],
                }
            )
        )
        return older, newer

    def test_buckets_by_rule_id(self):
        older, newer = self.pair()
        delta = diff_snapshots(older, newer)
        assert delta.added == (4,)
        assert delta.removed == (3,)
        assert delta.moved == (1,)
        assert delta.modified == (2,)
        assert delta.changed_ids == frozenset({1, 2, 3, 4})
        assert not delta.is_empty

    def test_identical_snapshots_have_empty_delta(self):
        older, _ = self.pair()
        delta = diff_snapshots(older, older)
        assert delta.is_empty
        assert delta.to_dict() == {
            "added": [],
            "removed": [],
            "moved": [],
            "modified": [],
        }


class TestScenarioDifferential:
    """The shipped verifier and the symbolic oracle agree on the canned
    churn scenario's snapshot, clean and under every seeded corruption."""

    @pytest.mark.parametrize("corruption", (None,) + CORRUPTIONS)
    def test_verifier_matches_oracle(self, corruption):
        hermes, direct = build_scenario(steps=40)
        payload = snapshot_tables(hermes.tables(), reference=direct.table)
        if corruption is not None:
            payload = corrupt_snapshot(payload, corruption)
        snapshot = load_snapshot(payload)
        tables = (snapshot.shadow, snapshot.main)
        shipped = verify_partition(
            *tables, reference=snapshot.reference, include_warnings=True
        )
        expected = symbolic_verify_partition(
            *tables, reference=snapshot.reference, include_warnings=True
        )
        assert violation_fingerprint(shipped) == violation_fingerprint(expected)
        assert any(v.is_error for v in shipped) == (corruption is not None)


class TestCliOverTime:
    def snapshots(self, tmp_path, corrupt=None):
        older = str(tmp_path / "older.json")
        newer = str(tmp_path / "newer.json")
        assert run_cli("scenario", "--steps", "40", "--out", older).returncode == 0
        newer_args = ["scenario", "--steps", "40", "--out", newer]
        if corrupt:
            newer_args += ["--corrupt", corrupt]
        run_cli(*newer_args)
        return older, newer

    def test_clean_pair_is_legitimate_churn(self, tmp_path):
        older, newer = self.snapshots(tmp_path)
        result = run_cli("verify", older, newer)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "legitimate churn" in result.stdout
        assert "delta" in result.stdout

    def test_corruption_localized_to_the_changed_rule(self, tmp_path):
        older, newer = self.snapshots(tmp_path, corrupt="swap-priority")
        result = run_cli("verify", older, newer)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "corruption introduced between" in result.stdout
        # The planted twin carries rule id 10000000; the delta names it.
        assert "implicated by the delta: rule #10000000" in result.stdout

    def test_corrupt_older_snapshot_reported_first(self, tmp_path):
        older, newer = self.snapshots(tmp_path, corrupt="duplicate")
        result = run_cli("verify", newer, older)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "corruption already present" in result.stdout

    def test_three_snapshots_is_a_usage_error(self, tmp_path):
        older, newer = self.snapshots(tmp_path)
        result = run_cli("verify", older, newer, older)
        assert result.returncode == 2


class TestCliLint:
    def test_env_fixture_fails_lint(self):
        result = run_cli("lint", ENV_FIXTURE)
        assert result.returncode == 1
        assert "unordered-iteration" in result.stdout
        assert "7 finding(s)" in result.stdout
