"""Tests for the parameter-sweep utilities."""

import pytest

from repro.core.config import backup_config, staleness_config
from repro.graphs import ring_based
from repro.harness import ExperimentSpec, deterministic_straggler, svm_workload
from repro.harness.sweeps import (
    sweep,
    sweep_backup,
    sweep_max_ig,
    sweep_seeds,
    sweep_staleness,
)


@pytest.fixture(scope="module")
def base_spec():
    return ExperimentSpec(
        "sweep-base",
        svm_workload("smoke"),
        ring_based(8),
        config=backup_config(n_backup=1, max_ig=4),
        max_iter=10,
        seed=0,
    )


def test_sweep_produces_one_row_per_value(base_spec):
    rows = sweep_max_ig(base_spec, [1, 2, 4])
    assert [row["max_ig"] for row in rows] == [1, 2, 4]
    for row in rows:
        assert row["wall_time"] > 0
        assert row["final_loss"] > 0


def test_sweep_max_ig_tolerance_under_straggler(base_spec):
    spec = base_spec.with_(
        scenario=deterministic_straggler(0, 4.0), max_iter=15
    )
    rows = sweep_max_ig(spec, [1, 8])
    # Larger gap bound = weakly more tolerance = no slower.
    assert rows[1]["wall_time"] <= rows[0]["wall_time"] + 1e-9
    assert rows[1]["max_gap"] >= rows[0]["max_gap"]


def test_sweep_backup_counts(base_spec):
    rows = sweep_backup(base_spec, [1, 2])
    assert [row["n_backup"] for row in rows] == [1, 2]


def test_sweep_staleness(base_spec):
    spec = base_spec.with_(config=staleness_config(staleness=2, max_ig=6))
    rows = sweep_staleness(spec, [1, 3])
    assert [row["staleness"] for row in rows] == [1, 3]


def test_sweep_seeds_varies_outcomes(base_spec):
    rows = sweep_seeds(base_spec, [0, 1, 2])
    losses = {row["final_loss"] for row in rows}
    assert len(losses) > 1  # different seeds, different draws


def test_generic_sweep_custom_knob(base_spec):
    rows = sweep(
        base_spec,
        vary=lambda spec, iters: spec.with_(max_iter=iters),
        values=[5, 10],
        label="max_iter",
    )
    assert rows[0]["max_iter"] == 5
    assert rows[1]["wall_time"] > rows[0]["wall_time"]
