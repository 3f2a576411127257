"""Tests for the plain-text experiment reports."""

import pytest

from repro.experiments.ablation import AblationResult
from repro.experiments.paper_data import TABLE2_ROWS
from repro.experiments.report import (
    error_summary,
    format_ablation,
    format_figure,
    format_validation_table,
)
from repro.experiments.runner import ValidationRowResult, ValidationTableResult
from repro.experiments.study import build_spec, run_study


def make_table_result() -> ValidationTableResult:
    result = ValidationTableResult(name="table2", machine_name="opteron-gige")
    for row, predicted, measured in zip(TABLE2_ROWS[:3], (9.1, 9.8, 10.2), (9.5, 10.1, 10.6)):
        result.rows.append(ValidationRowResult(
            data_size=row.data_size, pes=row.pes, px=row.px, py=row.py,
            predicted=predicted, measured=measured, paper_row=row))
    return result


class TestValidationTableReport:
    def test_contains_columns_and_rows(self):
        text = format_validation_table(make_table_result())
        assert "Data Size" in text and "Error(%)" in text
        assert "100x100x50" in text and "2x2" in text
        assert "Paper Meas." in text
        assert "average |error|" in text
        assert "paper:" in text

    def test_without_paper_columns(self):
        text = format_validation_table(make_table_result(), include_paper=False)
        assert "Paper Meas." not in text

    def test_handles_prediction_only_rows(self):
        result = ValidationTableResult(name="table1", machine_name="pentium3-myrinet")
        result.rows.append(ValidationRowResult(
            data_size="100x100x50", pes=4, px=2, py=2, predicted=27.5))
        text = format_validation_table(result)
        assert "-" in text

    def test_error_summary(self):
        text = error_summary([make_table_result()])
        assert "table2" in text and "rows" in text


class TestFigureReport:
    def test_figure_table_layout(self):
        result = run_study(build_spec("figure8", processor_counts=[1, 4],
                                      rate_factors=[1.0, 1.5])).payload
        text = format_figure(result)
        assert "Processors" in text
        assert "340 MFLOPS" in text and "510 MFLOPS" in text
        # The published-figure comparison footer only appears when the axis
        # reaches the study's full 8000 processors.
        assert "expected 'actual' time" not in text

    def test_figure_footer_on_full_axis(self):
        result = run_study(build_spec("figure8", processor_counts=[1, 8000],
                                      rate_factors=[1.0])).payload
        text = format_figure(result)
        assert "expected 'actual' time at 8000 processors" in text


class TestAblationReport:
    def test_format(self):
        ablation = AblationResult(machine_name="opteron-gige", data_size="100x100x50",
                                  pes=4, measured=9.0, coarse_prediction=8.8,
                                  legacy_prediction=13.0)
        text = format_ablation(ablation)
        assert "ablation" in text.lower()
        assert "smaller" in text
        assert ablation.coarse_error_pct == pytest.approx((9.0 - 8.8) / 9.0 * 100)
