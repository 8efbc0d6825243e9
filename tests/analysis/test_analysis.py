"""Tests for percentile helpers and result rendering."""

import pytest

from repro.analysis import (
    ExperimentResult,
    format_cell,
    increase_ratios,
    median_improvement,
    percentile_summary,
    render_table,
)


class TestPercentiles:
    def test_summary_keys(self):
        summary = percentile_summary(range(1, 101), (50, 99))
        assert summary[50] == pytest.approx(50.5)
        assert summary[99] == pytest.approx(99.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_summary([])


class TestMedianImprovement:
    def test_improvement_fraction(self):
        assert median_improvement([10, 10], [2, 2]) == pytest.approx(0.8)

    def test_regression_is_negative(self):
        assert median_improvement([2, 2], [10, 10]) < 0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            median_improvement([0, 0], [1, 1])


class TestIncreaseRatios:
    def test_shared_keys_only(self):
        baseline = {1: 2.0, 2: 4.0, 3: 1.0}
        subject = {1: 4.0, 2: 4.0, 99: 7.0}
        assert sorted(increase_ratios(baseline, subject)) == [1.0, 2.0]

    def test_zero_baseline_skipped(self):
        assert increase_ratios({1: 0.0}, {1: 5.0}) == []


class TestRendering:
    def test_format_cell_floats(self):
        assert format_cell(2.345678) == "2.346"
        assert format_cell(0.0000123) == "1.23e-05"
        assert format_cell(0) == "0"
        assert format_cell("abc") == "abc"
        assert format_cell(True) == "True"

    def test_render_table_alignment(self):
        text = render_table(["col", "x"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_render_empty_table(self):
        text = render_table(["a", "b"], [])
        assert "a" in text

    def test_experiment_result_render_and_column(self):
        result = ExperimentResult(
            experiment_id="Table X",
            title="demo",
            headers=["name", "value"],
            rows=[("a", 1), ("b", 2)],
            notes="a note",
        )
        rendered = result.render()
        assert "Table X" in rendered and "a note" in rendered
        assert result.column("value") == [1, 2]
        with pytest.raises(ValueError):
            result.column("missing")
