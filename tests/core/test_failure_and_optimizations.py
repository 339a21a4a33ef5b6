"""Failure injection and the Section 6.2 optimizations.

Covers behaviors the paper claims in prose:

* Section 3.4: backup workers tolerate slow workers "or even
  accidental node crashes" — and with token queues, the blast radius
  of a crash is *exactly* Theorem 2's bound: neighbors advance at most
  ``max_ig`` further iterations, then stop (no corruption, no
  deadlock crash).
* Section 6.2(b): inquiring the receiver's iteration before sending
  suppresses updates that would arrive stale.
* Section 4.4: the Eq. (2) weighted reduce vs the simple average.
"""

import numpy as np
import pytest

from repro.core import (
    HopCluster,
    HopConfig,
    STANDARD,
    StalenessRecv,
    backup_config,
    staleness_config,
)
from repro.core.cluster import DeadlockError
from repro.graphs import ring, ring_based
from repro.hetero import ComputeModel, DeterministicSlowdown
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.scenarios import CrashEvent


N_FEATURES = 16


@pytest.fixture(scope="module")
def dataset():
    return synthetic_webspam(
        np.random.default_rng(0), n_train=256, n_test=64, n_features=N_FEATURES
    )


def crash(at_iteration, worker=0):
    """``crash_events`` for one permanent fail-stop crash."""
    return {worker: CrashEvent(worker=worker, at_iteration=at_iteration)}


def make_cluster(dataset, config, n=6, max_iter=30, slowdown=None, **kwargs):
    return HopCluster(
        topology=ring_based(n),
        config=config,
        model_factory=lambda rng: build_svm(rng, N_FEATURES),
        dataset=dataset,
        optimizer=SGD(lr=0.5, momentum=0.9),
        compute_model=ComputeModel(
            base_time=0.05, n_workers=n, slowdown=slowdown
        ),
        max_iter=max_iter,
        seed=2,
        **kwargs,
    )


class TestCrashInjection:
    """A worker that halts cold mid-training (Section 3.4's crashes)."""

    def test_crash_halts_the_crashed_worker_only_initially(self, dataset):
        crash_iteration = 5
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=3),
            max_iter=20,
            crash_events=crash(crash_iteration),
        ).run()
        assert run.iterations_completed[0] == crash_iteration

    def test_blast_radius_is_exactly_max_ig(self, dataset):
        """Theorem 2 in action: neighbors of a crashed worker advance
        exactly ``crash_iteration + max_ig`` iterations, then stop."""
        crash_iteration, max_ig = 5, 3
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=max_ig),
            max_iter=50,  # far beyond what the crash allows
            crash_events=crash(crash_iteration),
        ).run()
        topo = ring_based(6)
        for neighbor in topo.out_neighbors(0, include_self=False):
            # The crashed worker inserted tokens for iterations
            # 0..crash-1 plus the initial max_ig - 1: neighbors enter
            # at most iteration crash + max_ig - 1 (completing it).
            assert run.iterations_completed[neighbor] == (
                crash_iteration + max_ig
            )

    def test_crash_before_end_does_not_affect_short_runs(self, dataset):
        """If training ends before the blast radius bites, all finish."""
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=4),
            max_iter=6,
            crash_events=crash(3),
        ).run()
        survivors = run.iterations_completed[1:]
        assert all(done == 6 for done in survivors)

    def test_standard_mode_without_crash_still_validates_deadlocks(
        self, dataset
    ):
        """Genuine deadlocks (no injected crash) still raise."""
        run = make_cluster(dataset, STANDARD, max_iter=10).run()
        assert run.iterations_completed == [10] * 6  # sanity: no deadlock

    def test_crash_only_supported_for_hop(self, dataset):
        with pytest.raises(ValueError, match="only supported for hop"):
            make_cluster(
                dataset,
                STANDARD,
                protocol="notify_ack",
                crash_events=crash(2),
            )

    def test_negative_crash_iteration_rejected(self):
        with pytest.raises(ValueError, match="at_iteration must be >= 0"):
            crash(-1)

    def test_backup_mode_survives_a_slow_but_alive_worker(self, dataset):
        """A 20x straggler (alive, not crashed) does not deadlock."""
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=3),
            max_iter=15,
            slowdown=DeterministicSlowdown({0: 20.0}),
        ).run()
        assert run.iterations_completed == [15] * 6
        assert run.gap.max_observed() <= 3 * ring_based(6).diameter()


class TestReceiverIterationCheck:
    """Section 6.2(b): suppress sends to receivers that moved on."""

    def test_suppression_counted_under_straggler(self, dataset):
        config = HopConfig(
            mode="backup",
            n_backup=1,
            max_ig=4,
            check_receiver_iteration=True,
        )
        run = make_cluster(
            dataset,
            config,
            max_iter=25,
            slowdown=DeterministicSlowdown({0: 6.0}),
        ).run()
        suppressed = sum(
            stats.get("n_suppressed_sends", 0) for stats in run.worker_stats
        )
        # The straggler's updates for old iterations get suppressed.
        assert suppressed > 0
        assert run.iterations_completed == [25] * 6

    def test_no_suppression_in_homogeneous_run(self, dataset):
        config = HopConfig(
            mode="backup", n_backup=1, max_ig=4, check_receiver_iteration=True
        )
        run = make_cluster(dataset, config, max_iter=20).run()
        suppressed = sum(
            stats.get("n_suppressed_sends", 0) for stats in run.worker_stats
        )
        assert suppressed == 0

    def test_convergence_unaffected(self, dataset):
        """Suppressed updates would have been dropped anyway."""
        base = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=4),
            max_iter=25,
            slowdown=DeterministicSlowdown({0: 6.0}),
        ).run()
        checked = make_cluster(
            dataset,
            HopConfig(
                mode="backup",
                n_backup=1,
                max_ig=4,
                check_receiver_iteration=True,
            ),
            max_iter=25,
            slowdown=DeterministicSlowdown({0: 6.0}),
        ).run()
        _, base_losses = base.smoothed_loss_series(window=16)
        _, checked_losses = checked.smoothed_loss_series(window=16)
        assert checked_losses[-1] < base_losses[0]  # still converges
        # And strictly fewer parameter messages cross the network.
        assert checked.messages_sent <= base.messages_sent


class TestStaleReduceFlavors:
    def test_uniform_flavor_runs(self, dataset):
        config = staleness_config(staleness=3, max_ig=6, stale_reduce="uniform")
        run = make_cluster(dataset, config, max_iter=20).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_flavors_differ_numerically_under_slowdown(self, dataset):
        runs = {}
        for flavor in ("weighted", "uniform"):
            config = staleness_config(
                staleness=3, max_ig=6, stale_reduce=flavor
            )
            runs[flavor] = make_cluster(
                dataset,
                config,
                max_iter=20,
                slowdown=DeterministicSlowdown({0: 3.0}),
            ).run()
        # Same timing (aggregation doesn't change blocking) ...
        assert runs["weighted"].wall_time == runs["uniform"].wall_time
        # ... but different arithmetic once stale updates appear.
        assert not np.array_equal(
            runs["weighted"].final_params, runs["uniform"].final_params
        )

    def test_invalid_flavor_rejected(self):
        with pytest.raises(ValueError):
            staleness_config(stale_reduce="median")
        with pytest.raises(ValueError):
            StalenessRecv(2, reduce_flavor="median")
