"""Run scheduling: the fault-tolerant bridge onto the process pool.

One dispatcher thread per pool slot takes cells (spec payloads) through
the full robustness pipeline:

1. **Cache first** — a verified entry short-circuits the run (the hit
   is journaled so a resumed sweep knows the cell is settled).
2. **Bounded retries** — each compute attempt runs in the process pool
   under a per-run timeout; failures (worker crash, timeout, in-worker
   exception) sleep a deterministic seeded-backoff delay
   (:func:`repro.harness.retry.backoff_schedule`, jitter seeded from
   the spec hash) and try again, up to the attempt budget.
3. **Pool respawn** — a crashed worker breaks the whole
   ``ProcessPoolExecutor``; the scheduler detects
   ``BrokenProcessPool``, replaces the pool, and the affected cells
   simply consume a retry.  A timed-out run also forces a respawn
   (terminating the wedged worker) so the hung slot is reclaimed
   instead of starving the sweep.
4. **Durable completion** — result + fingerprint go to the cache
   (atomic write) *before* the journal's ``done`` record, so a crash
   between the two at worst forgets the journal line; the resumed
   sweep re-checks the cache and still never recomputes.

Admission is bounded: more than ``max_pending`` queued cells rejects
the sweep with :class:`ServiceOverloaded` (the HTTP layer turns that
into a 429), so overload sheds load instead of growing an unbounded
queue.  ``drain()`` stops admissions and waits for in-flight sweeps —
the SIGTERM half of graceful shutdown.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.retry import backoff_schedule
from repro.service.cache import ResultCache
from repro.service.journal import RunJournal
from repro.service.runner import execute_cell


class ServiceOverloaded(RuntimeError):
    """Admission queue full: the submit must be shed (HTTP 429)."""


class SchedulerDraining(RuntimeError):
    """The scheduler no longer accepts work (HTTP 503)."""


@dataclass
class CellState:
    """Lifecycle of one sweep cell."""

    spec_hash: str
    payload: dict
    status: str = "pending"  # pending -> running -> done | failed
    cache_hit: bool = False
    attempts: int = 0
    error: Optional[str] = None

    def snapshot(self) -> dict:
        return {
            "status": self.status,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SweepState:
    """One submitted sweep and its cells (insertion-ordered)."""

    sweep_id: str
    cells: Dict[str, CellState] = field(default_factory=dict)
    finished: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> dict:
        terminal = sum(
            1 for c in self.cells.values() if c.status in ("done", "failed")
        )
        return {
            "sweep_id": self.sweep_id,
            "total": len(self.cells),
            "done": terminal,
            "failed": sorted(
                h for h, c in self.cells.items() if c.status == "failed"
            ),
            "complete": self.finished.is_set(),
            "cells": {h: c.snapshot() for h, c in self.cells.items()},
        }


class RunScheduler:
    """Dispatch cells across a self-healing process pool."""

    def __init__(
        self,
        cache: ResultCache,
        journal: RunJournal,
        pool_workers: int = 2,
        run_timeout: float = 120.0,
        attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_jitter: float = 0.1,
        max_pending: int = 64,
        inline: bool = False,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.cache = cache
        self.journal = journal
        self.pool_workers = max(1, pool_workers)
        self.run_timeout = run_timeout
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.backoff_jitter = backoff_jitter
        self.max_pending = max_pending
        #: Run cells in the dispatcher thread instead of a process
        #: pool: for sandboxes without fork and for in-process tests.
        #: (Chaos ``crash_attempts`` would kill the server itself here.)
        self.inline = inline

        self._dispatch = ThreadPoolExecutor(
            max_workers=self.pool_workers, thread_name_prefix="repro-dispatch"
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.RLock()
        self._state_lock = threading.RLock()
        self._sweeps: Dict[str, SweepState] = {}
        self._pending = 0
        self._draining = False
        self.counters = {
            "runs_computed": 0,
            "retries": 0,
            "worker_crashes": 0,
            "timeouts": 0,
            "run_failures": 0,
            "shed": 0,
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit_sweep(
        self,
        sweep_id: str,
        cells: List[Tuple[str, dict]],
        journal: bool = True,
        force: bool = False,
    ) -> SweepState:
        """Admit one sweep of ``(spec_hash, payload)`` cells.

        Duplicate hashes within a sweep collapse to one cell.  With
        ``journal=False`` the sweep record is assumed journaled already
        (the restart-resume path); ``force=True`` skips the admission
        bound so resumed sweeps are never shed by their own restart.
        """
        if not cells:
            raise ValueError("a sweep needs at least one cell")
        unique: Dict[str, dict] = {}
        for spec_hash, payload in cells:
            unique.setdefault(spec_hash, payload)
        with self._state_lock:
            if self._draining:
                raise SchedulerDraining("scheduler is draining")
            if sweep_id in self._sweeps:
                raise ValueError(f"sweep {sweep_id!r} already submitted")
            if not force and self._pending + len(unique) > self.max_pending:
                self.counters["shed"] += 1
                raise ServiceOverloaded(
                    f"admission queue full ({self._pending} pending, "
                    f"{len(unique)} requested, bound {self.max_pending})"
                )
            sweep = SweepState(sweep_id=sweep_id)
            for spec_hash, payload in unique.items():
                sweep.cells[spec_hash] = CellState(spec_hash, payload)
            self._sweeps[sweep_id] = sweep
            self._pending += len(unique)
        if journal:
            self.journal.sweep_submitted(
                sweep_id,
                [{"hash": h, "payload": p} for h, p in unique.items()],
            )
        for spec_hash in unique:
            self._dispatch.submit(self._run_cell, sweep, spec_hash)
        return sweep

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sweep(self, sweep_id: str) -> Optional[SweepState]:
        with self._state_lock:
            return self._sweeps.get(sweep_id)

    def stats(self) -> dict:
        with self._state_lock:
            stats = dict(self.counters)
            stats["pending"] = self._pending
            stats["sweeps"] = len(self._sweeps)
            stats["draining"] = self._draining
        stats["cache"] = self.cache.stats()
        return stats

    @property
    def accepting(self) -> bool:
        with self._state_lock:
            return not self._draining and self._pending < self.max_pending

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admissions; wait for in-flight sweeps.  True if idle."""
        with self._state_lock:
            self._draining = True
            sweeps = list(self._sweeps.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        for sweep in sweeps:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not sweep.finished.wait(remaining):
                return False
        return True

    def shutdown(self, timeout: Optional[float] = 30.0) -> bool:
        drained = self.drain(timeout)
        self._dispatch.shutdown(wait=drained, cancel_futures=True)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return drained

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _get_pool(self) -> Optional[ProcessPoolExecutor]:
        if self.inline:
            return None
        with self._pool_lock:
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.pool_workers
                    )
                except OSError as error:  # pragma: no cover - sandbox
                    warnings.warn(
                        f"process pool unavailable ({error!r}); "
                        "running cells inline",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self.inline = True
                    return None
            return self._pool

    def _respawn_pool(self, kill: bool = False) -> None:
        """Discard the (broken or wedged) pool; next run gets a new one."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            # A wedged worker never returns; terminate so the slot is
            # actually reclaimed rather than leaked.
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Cell execution
    # ------------------------------------------------------------------
    def _attempt(self, payload: dict, attempt: int) -> dict:
        pool = self._get_pool()
        if pool is None:
            return execute_cell(payload, attempt)
        future = pool.submit(execute_cell, payload, attempt)
        try:
            return future.result(timeout=self.run_timeout)
        except FutureTimeoutError:
            future.cancel()
            self._respawn_pool(kill=True)
            with self._state_lock:
                self.counters["timeouts"] += 1
            raise
        except BrokenProcessPool:
            self._respawn_pool()
            with self._state_lock:
                self.counters["worker_crashes"] += 1
            raise

    def _run_cell(self, sweep: SweepState, spec_hash: str) -> None:
        cell = sweep.cells[spec_hash]
        try:
            cell.status = "running"
            entry = self.cache.get(spec_hash)
            if entry is not None:
                cell.status = "done"
                cell.cache_hit = True
                self.journal.cell_done(
                    sweep.sweep_id, spec_hash, cache_hit=True, attempts=0
                )
                return
            delays = backoff_schedule(
                self.attempts,
                base=self.backoff_base,
                jitter=self.backoff_jitter,
                jitter_seed=int(spec_hash[:16], 16) & 0x7FFFFFFF,
            )
            last_error: Optional[BaseException] = None
            for attempt in range(self.attempts):
                cell.attempts = attempt + 1
                try:
                    outcome = self._attempt(cell.payload, attempt)
                except Exception as error:
                    last_error = error
                    if attempt < self.attempts - 1:
                        with self._state_lock:
                            self.counters["retries"] += 1
                        time.sleep(delays[attempt])
                    continue
                self.cache.put(
                    spec_hash,
                    outcome["spec"],
                    outcome["fingerprint"],
                    outcome["result"],
                )
                with self._state_lock:
                    self.counters["runs_computed"] += 1
                cell.status = "done"
                self.journal.cell_done(
                    sweep.sweep_id,
                    spec_hash,
                    cache_hit=False,
                    attempts=cell.attempts,
                )
                return
            cell.status = "failed"
            cell.error = f"{type(last_error).__name__}: {last_error}"
            with self._state_lock:
                self.counters["run_failures"] += 1
            self.journal.cell_done(
                sweep.sweep_id,
                spec_hash,
                cache_hit=False,
                attempts=cell.attempts,
                status="failed",
            )
        except Exception as error:  # defensive: never wedge a sweep
            cell.status = "failed"
            cell.error = f"{type(error).__name__}: {error}"
            with self._state_lock:
                self.counters["run_failures"] += 1
        finally:
            with self._state_lock:
                self._pending -= 1
            self._finish_sweep_if_done(sweep)

    def _finish_sweep_if_done(self, sweep: SweepState) -> None:
        # The whole terminal-check -> set transition holds the state
        # lock: without it, two dispatchers completing the last two
        # cells can both observe all-terminal before either sets the
        # event and journal sweep-done twice.
        with self._state_lock:
            cells = list(sweep.cells.values())
            if any(c.status not in ("done", "failed") for c in cells):
                return
            if sweep.finished.is_set():
                return
            # Only a fully *successful* sweep is journaled done: a
            # sweep with failed cells stays resumable, so a restart
            # retries the failures with a fresh attempt budget.  The
            # journal line lands before the event so waiters observe a
            # consistent journal.
            if all(c.status == "done" for c in cells):
                self.journal.sweep_done(sweep.sweep_id)
            sweep.finished.set()
