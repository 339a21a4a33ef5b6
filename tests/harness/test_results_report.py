"""Tests for cross-run analysis and report rendering."""

import numpy as np
import pytest

from repro.graphs import ring_based
from repro.harness import (
    ExperimentSpec,
    binned_loss_curve,
    binned_loss_vs_steps,
    compare_runs,
    final_smoothed_loss,
    iteration_rate_speedup,
    render_check,
    render_curve,
    render_series_table,
    render_table,
    run_spec,
    straggler_slowdown_ratio,
    svm_workload,
    time_to_loss_speedup,
    wall_time_speedup,
)


@pytest.fixture(scope="module")
def run():
    workload = svm_workload("smoke")
    return run_spec(
        ExperimentSpec("r", workload, ring_based(8), max_iter=20, seed=0)
    )


@pytest.fixture(scope="module")
def slow_run():
    from repro.harness import deterministic_straggler

    workload = svm_workload("smoke")
    return run_spec(
        ExperimentSpec(
            "s",
            workload,
            ring_based(8),
            scenario=deterministic_straggler(0, 4.0),
            max_iter=20,
            seed=0,
        )
    )


class TestCurves:
    def test_binned_loss_curve_shape(self, run):
        times, losses = binned_loss_curve(run, n_bins=10)
        assert times.size <= 10
        assert times.size == losses.size
        assert np.all(np.diff(times) > 0)

    def test_binned_curve_spans_run(self, run):
        times, _ = binned_loss_curve(run, n_bins=10)
        assert times[-1] <= run.wall_time

    def test_binned_loss_vs_steps(self, run):
        steps, losses = binned_loss_vs_steps(run, n_bins=8)
        assert steps.size == 8
        assert losses[0] > losses[-1]  # training works

    def test_final_smoothed_loss_finite(self, run):
        assert np.isfinite(final_smoothed_loss(run))


class TestSpeedups:
    def test_wall_time_speedup(self, run, slow_run):
        assert wall_time_speedup(slow_run, run) > 1.0
        assert wall_time_speedup(run, slow_run) < 1.0

    def test_iteration_rate_speedup(self, run, slow_run):
        assert iteration_rate_speedup(slow_run, run) > 1.0

    def test_time_to_loss_speedup(self, run, slow_run):
        target = final_smoothed_loss(run) * 1.3
        speedup = time_to_loss_speedup(slow_run, run, target)
        assert speedup > 0

    def test_time_to_loss_speedup_inf_safe(self, run, slow_run):
        assert time_to_loss_speedup(run, slow_run, target=0.0) == 0.0

    def test_straggler_slowdown_ratio(self, run, slow_run):
        ratio = straggler_slowdown_ratio(slow_run, run)
        assert ratio > 1.5  # the 4x straggler drags the graph


class TestCompareRuns:
    def test_rows_have_speedup_column(self, run, slow_run):
        rows = compare_runs({"fast": run, "slow": slow_run}, baseline="slow")
        labels = {row["label"]: row for row in rows}
        assert labels["fast"]["speedup_vs_slow"] > 1.0
        assert labels["slow"]["speedup_vs_slow"] == pytest.approx(1.0)

    def test_target_loss_column_optional(self, run):
        rows = compare_runs({"only": run})
        assert "time_to_target" not in rows[0]
        rows = compare_runs({"only": run}, target_loss=1.0)
        assert "time_to_target" in rows[0]


class TestReport:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}]
        text = render_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(empty)" in render_table([], title="nothing")

    def test_render_table_inf_nan(self):
        text = render_table([{"v": float("inf"), "w": float("nan")}])
        assert "inf" in text and "-" in text

    def test_render_curve_contains_extents(self):
        xs = np.linspace(0, 10, 50)
        ys = np.exp(-xs)
        text = render_curve("decay", xs, ys, width=20, height=5)
        assert "decay" in text
        assert "0.00 .. 10.00" in text

    def test_render_curve_empty(self):
        assert "(no data)" in render_curve("x", np.array([]), np.array([]))

    def test_render_series_table(self):
        series = {"a": (np.array([0.0, 1.0]), np.array([2.0, 1.0]))}
        text = render_series_table(series, n_points=2)
        assert "(0.00, 2.000)" in text

    def test_render_check(self):
        assert "[PASS]" in render_check("ok", True)
        assert "[FAIL]" in render_check("bad", False, "detail")
        assert "detail" in render_check("bad", False, "detail")
