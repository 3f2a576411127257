"""Tests for the speculative scaling figures (Figures 8 and 9)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.paper_data import FIGURE9_STUDY
from repro.experiments.study import build_spec, run_study

#: Short processor axis used to keep the test cheap; the benchmarks run the
#: full axis up to 8000 processors.
SHORT_AXIS = [1, 4, 16, 64, 256]


def run_figure(name, **params):
    return run_study(build_spec(name, **params)).payload


@pytest.fixture(scope="module")
def short_figure8():
    return run_figure("figure8", processor_counts=SHORT_AXIS)


class TestFigure8:
    def test_three_series(self, short_figure8):
        assert len(short_figure8.series) == 3
        assert [s.rate_factor for s in short_figure8.series] == [1.0, 1.25, 1.5]
        assert short_figure8.series[0].flop_rate_mflops == pytest.approx(340.0)

    def test_monotone_weak_scaling(self, short_figure8):
        for series in short_figure8.series:
            assert series.is_monotone_nondecreasing()
            assert series.processor_counts == SHORT_AXIS

    def test_faster_processors_are_faster_everywhere(self, short_figure8):
        actual = short_figure8.series_for(1.0).times
        plus25 = short_figure8.series_for(1.25).times
        plus50 = short_figure8.series_for(1.5).times
        for base, mid, fast in zip(actual, plus25, plus50):
            assert base > mid > fast

    def test_upgrade_speedup_is_sublinear(self, short_figure8):
        """A +50% flop rate gives less than 1.5x overall speedup (communication)."""
        speedup = short_figure8.speedup_from_upgrade(1.5)
        assert 1.0 < speedup < 1.5

    def test_single_processor_time_matches_compute_bound(self, short_figure8):
        # At one processor the 20M-cell problem runs 2500 cells x 48 angles
        # x 36 flops x 12 iterations plus the serial phases at 340 MFLOPS.
        sweep_flops = 2500 * 48 * 36 * 12
        expected = sweep_flops / 340e6
        actual = short_figure8.series_for(1.0).times[0]
        assert actual == pytest.approx(expected, rel=0.10)

    def test_unknown_rate_factor(self, short_figure8):
        with pytest.raises(ExperimentError):
            short_figure8.series_for(2.0)


class TestFigure9:
    def test_figure9_larger_than_figure8(self):
        fig8 = run_figure("figure8", processor_counts=[16], rate_factors=[1.0])
        fig9 = run_figure("figure9", processor_counts=[16], rate_factors=[1.0])
        # The 1-billion-cell problem has 50x more cells per processor.
        ratio = fig9.actual.times[0] / fig8.actual.times[0]
        assert 30 < ratio < 70

    def test_study_parameters_propagate(self):
        result = run_figure("figure9", processor_counts=[4], rate_factors=[1.0])
        assert result.study is FIGURE9_STUDY
        assert result.machine_name == "hypothetical-opteron-myrinet"


class TestRunSpeculativeFigure:
    def test_custom_axis_and_factors(self):
        result = run_figure("figure8", processor_counts=[1, 8], rate_factors=[1.0])
        assert len(result.series) == 1
        assert result.series[0].as_rows() == list(zip([1, 8], result.series[0].times))

    def test_empty_axis_rejected(self):
        with pytest.raises(ExperimentError):
            run_figure("figure8", processor_counts=[])
