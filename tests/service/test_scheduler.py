"""Scheduler tests: cache-first, deterministic retries, admission.

Fast paths run ``inline=True`` (cells execute in the dispatcher
thread); the process-pool failure modes — a crashed worker breaking
the pool, a hung worker tripping the run timeout — use a real
``ProcessPoolExecutor`` with the runner's chaos knobs.
"""

import time

import pytest

from repro.service.cache import ResultCache
from repro.service.journal import RunJournal
from repro.service.runner import execute_cell
from repro.service.scheduler import (
    RunScheduler,
    SchedulerDraining,
    ServiceOverloaded,
)
from repro.service.specio import spec_hash

#: A complete run in well under a second.
PAYLOAD = {"workers": 4, "max_iter": 2, "seed": 3}


def make_scheduler(tmp_path, **kwargs):
    kwargs.setdefault("inline", True)
    kwargs.setdefault("backoff_base", 0.001)
    return RunScheduler(
        ResultCache(tmp_path / "cache"),
        RunJournal(tmp_path / "journal.jsonl"),
        **kwargs,
    )


def wait(sweep, timeout=60.0):
    assert sweep.finished.wait(timeout), "sweep did not finish"
    return sweep.snapshot()


class TestHappyPathAndCache:
    def test_computes_then_serves_from_cache(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        first = wait(scheduler.submit_sweep("s1", [(digest, PAYLOAD)]))
        assert first["cells"][digest] == {
            "status": "done", "cache_hit": False, "attempts": 1,
            "error": None,
        }
        second = wait(scheduler.submit_sweep("s2", [(digest, PAYLOAD)]))
        assert second["cells"][digest]["cache_hit"] is True
        assert second["cells"][digest]["attempts"] == 0
        assert scheduler.counters["runs_computed"] == 1
        scheduler.shutdown(timeout=5)

    def test_duplicate_hashes_collapse_to_one_cell(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        snapshot = wait(
            scheduler.submit_sweep("s1", [(digest, PAYLOAD)] * 3)
        )
        assert snapshot["total"] == 1
        assert scheduler.counters["runs_computed"] == 1
        scheduler.shutdown(timeout=5)

    def test_journal_records_the_whole_story(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        wait(scheduler.submit_sweep("s1", [(digest, PAYLOAD)]))
        state = scheduler.journal.replay()
        assert state["s1"].complete
        assert state["s1"].done[digest]["cache_hit"] is False
        scheduler.shutdown(timeout=5)


class TestPoolSize:
    @pytest.mark.parametrize(
        "requested,expected", [(-3, 1), (0, 1), (1, 1), (2, 2), (16, 16)]
    )
    def test_pool_workers_is_at_least_one(
        self, tmp_path, requested, expected
    ):
        # No CPU cap: an explicit pool size above the core count is
        # honoured, the way ``--jobs`` is for the figure runner.
        scheduler = make_scheduler(tmp_path, pool_workers=requested)
        assert scheduler.pool_workers == expected
        scheduler.shutdown(timeout=5)


class TestRetries:
    def test_injected_failures_retry_and_match_clean_run_bitwise(
        self, tmp_path
    ):
        scheduler = make_scheduler(tmp_path, attempts=3)
        chaotic = {**PAYLOAD, "chaos": {"fail_attempts": 2}}
        digest = spec_hash(chaotic)
        assert digest == spec_hash(PAYLOAD)  # chaos is not hashed
        snapshot = wait(scheduler.submit_sweep("s1", [(digest, chaotic)]))
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert cell["attempts"] == 3  # two injected failures + success
        assert scheduler.counters["retries"] == 2
        # The retried run's stats are bitwise identical to a clean,
        # uninterrupted run of the same spec.
        clean = execute_cell(dict(PAYLOAD))
        entry = scheduler.cache.get(digest)
        assert entry["fingerprint"] == clean["fingerprint"]
        assert entry["result"] == clean["result"]
        scheduler.shutdown(timeout=5)

    def test_exhausted_attempts_mark_the_cell_failed(self, tmp_path):
        scheduler = make_scheduler(tmp_path, attempts=2)
        chaotic = {**PAYLOAD, "chaos": {"fail_attempts": 99}}
        digest = spec_hash(chaotic)
        snapshot = wait(scheduler.submit_sweep("s1", [(digest, chaotic)]))
        cell = snapshot["cells"][digest]
        assert cell["status"] == "failed"
        assert "injected failure" in cell["error"]
        assert snapshot["failed"] == [digest]
        assert scheduler.counters["run_failures"] == 1
        # A failed sweep is complete for clients but NOT journaled
        # done, so a restart retries it.
        assert scheduler.journal.replay()["s1"].complete is False
        scheduler.shutdown(timeout=5)

    def test_failed_cell_does_not_poison_the_cache(self, tmp_path):
        scheduler = make_scheduler(tmp_path, attempts=1)
        chaotic = {**PAYLOAD, "chaos": {"fail_attempts": 99}}
        digest = spec_hash(chaotic)
        wait(scheduler.submit_sweep("s1", [(digest, chaotic)]))
        assert scheduler.cache.get(digest) is None
        scheduler.shutdown(timeout=5)


class TestAdmission:
    def test_overload_sheds_with_service_overloaded(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_pending=1)
        slow = {**PAYLOAD, "chaos": {"delay_seconds": 0.5}}
        digest = spec_hash(slow)
        sweep = scheduler.submit_sweep("s1", [(digest, slow)])
        other = {**PAYLOAD, "seed": 4}
        with pytest.raises(ServiceOverloaded):
            scheduler.submit_sweep("s2", [(spec_hash(other), other)])
        assert scheduler.counters["shed"] == 1
        wait(sweep)
        # Capacity freed: the same submit is admitted now.
        scheduler.submit_sweep("s2", [(spec_hash(other), other)])
        scheduler.shutdown(timeout=10)

    def test_force_bypasses_the_admission_bound(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_pending=0)
        digest = spec_hash(PAYLOAD)
        with pytest.raises(ServiceOverloaded):
            scheduler.submit_sweep("s1", [(digest, PAYLOAD)])
        sweep = scheduler.submit_sweep(
            "s2", [(digest, PAYLOAD)], force=True
        )
        wait(sweep)
        scheduler.shutdown(timeout=5)

    def test_draining_rejects_new_sweeps(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.drain(timeout=5)
        with pytest.raises(SchedulerDraining):
            scheduler.submit_sweep("s1", [(spec_hash(PAYLOAD), PAYLOAD)])
        assert scheduler.accepting is False
        scheduler.shutdown(timeout=5)

    def test_duplicate_sweep_id_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        sweep = scheduler.submit_sweep("s1", [(digest, PAYLOAD)])
        with pytest.raises(ValueError, match="already submitted"):
            scheduler.submit_sweep("s1", [(digest, PAYLOAD)])
        wait(sweep)
        scheduler.shutdown(timeout=5)


class TestProcessPoolFailures:
    def test_crashed_worker_respawns_pool_and_retries(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, inline=False, pool_workers=1, attempts=3,
            run_timeout=60.0,
        )
        chaotic = {**PAYLOAD, "chaos": {"crash_attempts": 1}}
        digest = spec_hash(chaotic)
        snapshot = wait(
            scheduler.submit_sweep("s1", [(digest, chaotic)]), timeout=120
        )
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert cell["attempts"] >= 2
        assert scheduler.counters["worker_crashes"] >= 1
        # Crash-retried stats are still bitwise clean.
        clean = execute_cell(dict(PAYLOAD))
        assert scheduler.cache.get(digest)["fingerprint"] == (
            clean["fingerprint"]
        )
        scheduler.shutdown(timeout=10)

    def test_hung_worker_trips_timeout_and_recovers(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, inline=False, pool_workers=1, attempts=2,
            run_timeout=1.0,
        )
        chaotic = {
            **PAYLOAD,
            "chaos": {"hang_attempts": 1, "hang_seconds": 30.0},
        }
        digest = spec_hash(chaotic)
        start = time.monotonic()
        snapshot = wait(
            scheduler.submit_sweep("s1", [(digest, chaotic)]), timeout=120
        )
        elapsed = time.monotonic() - start
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert scheduler.counters["timeouts"] == 1
        # The hung attempt was abandoned at the timeout, not awaited.
        assert elapsed < 25.0
        scheduler.shutdown(timeout=10)
