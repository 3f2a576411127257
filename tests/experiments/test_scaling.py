"""Tests for the weak-scaling analysis helpers."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.scaling import (
    ScalingAnalysis,
    analyze_figure,
    analyze_figure_series,
    analyze_series,
)
from repro.experiments.study import build_spec, run_study


class TestAnalyzeSeries:
    def test_perfect_scaling(self):
        analysis = analyze_series([1, 4, 16], [2.0, 2.0, 2.0], label="ideal")
        assert analysis.final_efficiency() == pytest.approx(1.0)
        assert all(p.overhead_fraction == 0.0 for p in analysis.points)
        assert analysis.is_monotone_degrading()

    def test_degrading_scaling(self):
        analysis = analyze_series([1, 4, 16], [2.0, 2.5, 4.0])
        assert analysis.efficiency_at(4) == pytest.approx(0.8)
        assert analysis.efficiency_at(16) == pytest.approx(0.5)
        assert analysis.points[-1].overhead_fraction == pytest.approx(0.5)
        assert analysis.processors_above_efficiency(0.75) == 4
        assert analysis.processors_above_efficiency(0.4) == 16

    def test_threshold_never_reached(self):
        analysis = analyze_series([1, 4], [1.0, 10.0])
        with pytest.raises(ExperimentError):
            analysis.processors_above_efficiency(1.5)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            analyze_series([1, 2], [1.0])
        with pytest.raises(ExperimentError):
            analyze_series([], [])
        with pytest.raises(ExperimentError):
            analyze_series([1, 2], [1.0, 0.0])

    def test_missing_point_lookup(self):
        analysis = analyze_series([1, 8], [1.0, 1.5])
        with pytest.raises(ExperimentError):
            analysis.efficiency_at(64)

    def test_empty_base_time(self):
        with pytest.raises(ExperimentError):
            _ = ScalingAnalysis(label="x").base_time

    def test_describe(self):
        text = analyze_series([1, 4], [1.0, 1.25], label="demo").describe()
        assert "demo" in text and "efficiency" in text


class TestFigureScaling:
    @pytest.fixture(scope="class")
    def fig8_result(self):
        return run_study(build_spec("figure8", processor_counts=[1, 16, 256, 1024],
                                    rate_factors=[1.0, 1.5])).payload

    def test_series_analysis(self, fig8_result):
        analysis = analyze_figure_series(fig8_result.actual)
        # Weak-scaling efficiency degrades monotonically as the pipeline
        # lengthens, but stays useful ("good scaling behaviour").
        assert analysis.is_monotone_degrading()
        assert 0.3 < analysis.final_efficiency() < 1.0
        assert analysis.points[0].efficiency == pytest.approx(1.0)

    def test_upgraded_processor_has_lower_efficiency(self, fig8_result):
        """A faster processor shrinks compute but not communication, so its
        weak-scaling efficiency at scale is lower — the classic trade-off the
        speculative study exposes."""
        analyses = analyze_figure(fig8_result)
        assert analyses[1.5].final_efficiency() < analyses[1.0].final_efficiency()

    def test_labels(self, fig8_result):
        analyses = analyze_figure(fig8_result)
        assert "figure8" in analyses[1.0].label
