"""Benchmark: cost of producing a prediction (the PACE evaluation engine).

Figure 2 of the paper emphasises that once the application and resource
models exist, predictions are obtained "within seconds".  These benchmarks
measure that cost for representative configurations — a validation-table
row, the largest speculative configuration — plus the cost of the two
hardware-layer campaigns (profiling and the MPI micro-benchmark fit).

``test_sweep_100_points_compiled_vs_naive`` is the acceptance gate of the
compile/execute refactor: a 100-point parameter sweep through
``CompiledModel``/``SweepRunner`` must be at least 5x faster than the
seed's per-point evaluation (a freshly parsed model and interpreted engine
per point) while producing identical predictions (<= 1e-12 relative; in
practice bit-identical).  Baseline on the reference container: ~2.2 s
naive vs ~0.15 s compiled (~15x) for the 100-point (px, py) grid below.

``test_wavefront_figure9_shape`` gates the compiled path's hyperplane
wavefront evaluation on figure9's own 8000-rank template call: at least
20x faster than the per-block anti-diagonal ``evaluate``, bit-identical.
"""

from __future__ import annotations

import time

import pytest
from gate_report import record_gate

from repro.core.evaluation import EvaluationEngine
from repro.core.templates import PipelineStrategy
from repro.core.workload import SweepWorkload, load_sweep3d_model
from repro.experiments.figures import speculative_sweep
from repro.experiments.paper_data import FIGURE9_STUDY
from repro.experiments.study import get_study
from repro.experiments.sweep import Scenario, SweepRunner
from repro.machines.presets import get_machine
from repro.profiling.mpibench import MpiBenchmark
from repro.profiling.papi import FlopProfiler
from repro.simmpi.cart import Cart2D
from repro.sweep3d.input import standard_deck


@pytest.fixture(scope="module")
def p3_engine():
    machine = get_machine("pentium3-myrinet")
    deck = standard_deck("validation", px=2, py=2)
    hardware = machine.hardware_model(deck, 2, 2)
    return EvaluationEngine(load_sweep3d_model(), hardware)


@pytest.fixture(scope="module")
def hypothetical_engine():
    machine = get_machine("hypothetical-opteron-myrinet")
    deck = standard_deck("asci-20m", px=2, py=2)
    hardware = machine.hardware_model(deck, 2, 2)
    return EvaluationEngine(load_sweep3d_model(), hardware)


def test_prediction_speed_validation_row(benchmark, p3_engine):
    """One Table-1 row prediction (112 processors, 12 iterations)."""
    deck = standard_deck("validation", px=8, py=14)
    variables = SweepWorkload(deck, 8, 14).model_variables()

    result = benchmark(lambda: p3_engine.predict(variables))
    assert result.total_time > 0
    benchmark.extra_info["predicted_seconds"] = round(result.total_time, 2)


def test_prediction_speed_8000_processors(benchmark, hypothetical_engine):
    """The largest speculative configuration: 8000 processors, 20M cells."""
    cart = Cart2D.for_size(8000)
    deck = standard_deck("asci-20m", px=cart.px, py=cart.py)
    variables = SweepWorkload(deck, cart.px, cart.py).model_variables()

    def predict():
        hypothetical_engine.clear_cache()   # measure a cold evaluation
        return hypothetical_engine.predict(variables)

    result = benchmark.pedantic(predict, rounds=3, iterations=1)
    assert result.total_time > 0
    benchmark.extra_info["predicted_seconds"] = round(result.total_time, 3)


def _sweep_points() -> list[Scenario]:
    """A 100-point weak-scaling grid over (px, py) processor arrays."""
    points = []
    for px in range(1, 11):
        for py in range(1, 11):
            deck = standard_deck("validation", px=px, py=py)
            workload = SweepWorkload(deck, px, py)
            points.append(Scenario(label=f"{px}x{py}",
                                   variables=workload.model_variables()))
    return points


def test_sweep_100_points_compiled_vs_naive():
    """The compiled batch pipeline is >=5x the seed's per-point evaluation."""
    machine = get_machine("pentium3-myrinet")
    deck = standard_deck("validation", px=1, py=1)
    hardware = machine.hardware_model(deck, 1, 1)
    points = _sweep_points()

    def run_naive() -> tuple[float, list[float]]:
        start = time.perf_counter()
        times = [
            EvaluationEngine(load_sweep3d_model(), hardware,
                             compiled=False).predict(p.variables).total_time
            for p in points
        ]
        return time.perf_counter() - start, times

    def run_compiled() -> tuple[float, list[float]]:
        start = time.perf_counter()
        runner = SweepRunner(model=load_sweep3d_model(), hardware=hardware)
        times = [outcome.total_time for outcome in runner.run(points)]
        return time.perf_counter() - start, times

    best_speedup, best_seconds = 0.0, {}
    for _ in range(2):                      # one retry guards against noise
        naive_elapsed, naive_times = run_naive()
        compiled_elapsed, compiled_times = run_compiled()
        for naive, compiled in zip(naive_times, compiled_times):
            assert compiled == pytest.approx(naive, rel=1e-12)
        if naive_elapsed / compiled_elapsed > best_speedup:
            best_speedup = naive_elapsed / compiled_elapsed
            best_seconds = {"naive": naive_elapsed, "compiled": compiled_elapsed}
        if best_speedup >= 5.0:
            break
    print(f"\n100-point sweep: naive {naive_elapsed:.2f}s, "
          f"compiled {compiled_elapsed:.2f}s, speedup {best_speedup:.1f}x")
    record_gate("sweep_100pt_compiled_vs_naive", best_speedup, 5.0,
                seconds=best_seconds)
    assert best_speedup >= 5.0


def test_wavefront_figure9_shape(monkeypatch):
    """``evaluate_fast`` is >= 20x ``evaluate`` on figure9's 8000-rank call.

    The template arguments are captured from a real compiled prediction of
    figure9's largest point (80 x 100 ranks, 20 k-blocks x 2 angle blocks),
    so the gate measures the deck shape the speculative study evaluates.
    """
    machine = get_machine(get_study("figure9").default_machine)
    (point,) = speculative_sweep(FIGURE9_STUDY, machine, [8000], [1.0])
    calls = []
    fast = PipelineStrategy.evaluate_fast

    def capture(self, variables, stage, hardware):
        calls.append((variables, stage, hardware))
        return fast(self, variables, stage, hardware)

    monkeypatch.setattr(PipelineStrategy, "evaluate_fast", capture)
    EvaluationEngine(load_sweep3d_model(), point.hardware).predict(point.variables)
    monkeypatch.undo()
    (args,) = calls
    assert (args[0]["npe_i"], args[0]["npe_j"]) == (80, 100)
    assert (args[0]["n_k_blocks"], args[0]["n_angle_blocks"]) == (20, 2)

    def timed(evaluate):
        start = time.perf_counter()
        result = evaluate(*args)
        return time.perf_counter() - start, result

    strategy = PipelineStrategy()
    best_speedup, best_seconds = 0.0, {}
    for _ in range(2):                      # one retry guards against noise
        vector_elapsed, vector_result = timed(strategy.evaluate)
        fast_elapsed, fast_result = min((timed(strategy.evaluate_fast) for _ in range(3)),
                                        key=lambda pair: pair[0])
        assert fast_result == vector_result
        if vector_elapsed / fast_elapsed > best_speedup:
            best_speedup = vector_elapsed / fast_elapsed
            best_seconds = {"evaluate": vector_elapsed, "evaluate_fast": fast_elapsed}
        if best_speedup >= 20.0:
            break
    print(f"\nfigure9 8000-rank template: evaluate {best_seconds['evaluate']:.3f}s, "
          f"evaluate_fast {best_seconds['evaluate_fast']:.4f}s, speedup {best_speedup:.1f}x")
    record_gate("wavefront_figure9_shape_fast_vs_evaluate", best_speedup, 20.0,
                seconds=best_seconds)
    assert best_speedup >= 20.0


def test_sweep_runner_100_points(benchmark):
    """Absolute cost of the compiled 100-point sweep (for trend tracking)."""
    machine = get_machine("pentium3-myrinet")
    deck = standard_deck("validation", px=1, py=1)
    hardware = machine.hardware_model(deck, 1, 1)
    points = _sweep_points()
    runner = SweepRunner(model=load_sweep3d_model(), hardware=hardware)

    outcomes = benchmark.pedantic(lambda: runner.run(points),
                                  rounds=3, iterations=1)
    assert len(outcomes) == 100
    benchmark.extra_info["subtask_hit_rate"] = round(
        runner.stats.subtask_hit_rate, 3)


def test_flop_profiling_campaign_speed(benchmark):
    """PAPI-substitute profiling of the serial kernel for one problem size."""
    machine = get_machine("opteron-gige")
    deck = standard_deck("validation", px=1, py=1)
    profile = benchmark(lambda: FlopProfiler(machine.processor).profile(deck))
    benchmark.extra_info["achieved_mflops"] = round(profile.achieved_mflops, 1)


def test_mpi_benchmark_campaign_speed(benchmark):
    """The simulated MPI micro-benchmark sweep plus the A-E curve fits."""
    machine = get_machine("pentium3-myrinet")

    def campaign():
        data = MpiBenchmark(machine.topology, repetitions=3).run()
        return data.fit()

    fits = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert set(fits) == {"send", "recv", "pingpong"}
