"""Tests for workloads and experiment specs."""

import numpy as np
import pytest

from repro.graphs import ring, ring_based
from repro.harness import (
    RANDOM_6X,
    ExperimentSpec,
    ScenarioSpec,
    by_name,
    cnn_workload,
    deterministic_straggler,
    run_spec,
    svm_workload,
)
from repro.hetero import DeterministicSlowdown, NoSlowdown, RandomSlowdown
from repro.sim import RngStreams


class TestWorkloads:
    def test_cnn_builds_consistent_models(self):
        workload = cnn_workload("smoke")
        a = workload.model_factory(np.random.default_rng(1))
        b = workload.model_factory(np.random.default_rng(1))
        assert np.array_equal(a.get_params(), b.get_params())

    def test_svm_gradient_works(self):
        workload = svm_workload("smoke")
        model = workload.model_factory(np.random.default_rng(0))
        x = workload.dataset.x_train[: workload.batch_size]
        y = workload.dataset.y_train[: workload.batch_size]
        loss, grad = model.loss_and_grad(x, y)
        assert loss > 0 and grad.shape == (model.dim,)

    def test_presets_scale_dataset(self):
        small = cnn_workload("smoke")
        large = cnn_workload("paper")
        assert large.dataset.n_train > small.dataset.n_train

    def test_by_name(self):
        assert by_name("cnn", "smoke").name == "cnn"
        assert by_name("svm", "smoke").name == "svm"
        with pytest.raises(ValueError):
            by_name("transformer", "smoke")
        with pytest.raises(ValueError):
            cnn_workload("gigantic")

    def test_target_loss_preset_aware(self):
        assert cnn_workload("smoke").target_loss > cnn_workload("paper").target_loss


class TestPaperRecipes:
    """The Section 7.3 recipes are plain random / straggler scenarios."""

    def test_default_scenario_is_homogeneous(self):
        spec = ExperimentSpec("t", svm_workload("smoke"), ring(4))
        assert spec.scenario == ScenarioSpec()
        assert isinstance(spec.built_scenario().slowdown, NoSlowdown)

    def test_random_defaults_probability_to_1_over_n(self):
        model = RANDOM_6X.build(16, RngStreams(0)).slowdown
        assert isinstance(model, RandomSlowdown)
        assert model.probability == pytest.approx(1 / 16)
        assert model.slow_factor == 6.0

    def test_deterministic(self):
        spec = deterministic_straggler(worker=3, factor=4.0)
        assert spec == ScenarioSpec("straggler", {"workers": {3: 4.0}})
        model = spec.build(8, RngStreams(0)).slowdown
        assert isinstance(model, DeterministicSlowdown)
        assert model.factor(3, 0) == 4.0
        assert model.factor(0, 0) == 1.0

    def test_describe(self):
        assert ScenarioSpec().describe() == "none"
        assert RANDOM_6X.describe() == "random(factor=6.0)"
        assert "0: 4.0" in deterministic_straggler().describe()


class TestRunSpec:
    @pytest.fixture(scope="class")
    def workload(self):
        return svm_workload("smoke")

    def test_hop_protocol(self, workload):
        spec = ExperimentSpec(
            "t", workload, ring_based(8), max_iter=10, seed=0
        )
        run = run_spec(spec)
        assert run.protocol == "hop"
        assert run.iterations_completed == [10] * 8

    def test_all_protocols_run(self, workload):
        from repro.graphs import bipartite_ring

        for protocol in ("notify_ack", "ps-bsp", "ps-async", "allreduce"):
            spec = ExperimentSpec(
                protocol,
                workload,
                ring_based(8),
                protocol=protocol,
                max_iter=5,
                seed=0,
            )
            run = run_spec(spec)
            assert run.wall_time > 0

        spec = ExperimentSpec(
            "adpsgd",
            workload,
            bipartite_ring(8),
            protocol="adpsgd",
            max_iter=5,
            seed=0,
        )
        assert run_spec(spec).protocol == "adpsgd"

    def test_ssp_needs_staleness(self, workload):
        spec = ExperimentSpec(
            "ssp",
            workload,
            ring(4),
            protocol="ps-ssp",
            ps_staleness=2,
            max_iter=5,
        )
        assert run_spec(spec).protocol == "ps-ssp"

    def test_unknown_protocol(self, workload):
        spec = ExperimentSpec(
            "x", workload, ring(4), protocol="telepathy", max_iter=5
        )
        with pytest.raises(ValueError):
            run_spec(spec)

    def test_with_returns_modified_copy(self, workload):
        spec = ExperimentSpec("a", workload, ring(4), max_iter=5)
        other = spec.with_(max_iter=9, seed=3)
        assert other.max_iter == 9 and other.seed == 3
        assert spec.max_iter == 5
