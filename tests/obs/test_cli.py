"""Tests for ``python -m repro.obs``: scenario export and trace round-trip."""

import os
import re

import pytest

from repro.obs.__main__ import main


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """The canned chaos scenario, traced and exported in both formats."""
    out_dir = tmp_path_factory.mktemp("obs-scenario")
    assert main(["scenario", "chaos", "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestScenario:
    def test_exports_both_formats(self, scenario_dir):
        assert sorted(os.listdir(str(scenario_dir))) == [
            "trace.chrome.json", "trace.jsonl",
        ]
        for name in ("trace.jsonl", "trace.chrome.json"):
            assert os.path.getsize(os.path.join(str(scenario_dir), name)) > 0

    def test_chrome_export_is_valid_json(self, scenario_dir):
        import json

        with open(os.path.join(str(scenario_dir), "trace.chrome.json")) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]


class TestSummaryCli:
    def test_summary_round_trips_the_trace(self, scenario_dir, capsys):
        trace = os.path.join(str(scenario_dir), "trace.jsonl")
        assert main(["summary", trace]) == 0
        out = capsys.readouterr().out
        assert "hermes-trace/1" in out
        for stage in ("gatekeeper", "queue", "tcam", "channel"):
            assert stage in out
        # The one per-stage report is the ledger, which counts control
        # actions by command.
        assert "guarantee-burn ledger against a 5 ms guarantee" in out
        assert re.search(r"\d+ control actions \(\d+ add, \d+ delete\)", out)
        assert "installed FlowMods" not in out

    def test_summary_scores_against_the_given_guarantee(self, faulted_run, capsys):
        assert main(["summary", faulted_run.path, "--guarantee-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "guarantee-burn ledger against a 1 ms guarantee" in out
        assert "violation window(s)" in out

    def test_diff_of_trace_with_itself(self, scenario_dir, capsys):
        trace = os.path.join(str(scenario_dir), "trace.jsonl")
        assert main(["diff", trace, trace]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^A = .*control actions", out, re.MULTILINE)
        for stage in ("gatekeeper", "queue", "tcam", "channel"):
            assert re.search(rf"^{stage} .* \+0\.000\s*$", out, re.MULTILINE)

    def test_perf_report_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["perf", "report", "trace.jsonl"])
        capsys.readouterr()

    def test_summary_rejects_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-trace.jsonl"
        bogus.write_text('{"format": "something-else"}\n')
        with pytest.raises(SystemExit) as exit_info:
            main(["summary", str(bogus)])
        assert exit_info.value.code == 2
        assert "not a hermes-trace/1 trace" in capsys.readouterr().err
