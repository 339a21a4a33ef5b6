"""Profiling and simulator-core benchmarking utilities.

Two entry points back ``repro profile`` (and ``scripts/profile_sim.py``):

* :func:`profile_spec` — run one :class:`~repro.harness.spec
  .ExperimentSpec` under :mod:`cProfile` and return the stats report
  plus throughput counters (iterations/sec, messages/sec of real time).
* :func:`sim_core_events_per_sec` — a pure discrete-event-engine
  microbenchmark (no ML, no protocols): many processes churning
  timeouts through one :class:`~repro.sim.engine.Environment`.  Its
  events/sec number tracks the engine fast path in isolation, so an
  accidental O(n^2) or a de-inlined hot loop shows up immediately
  (scripts/ci.sh guards a generous floor).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass

from repro.harness.spec import ExperimentSpec, run_spec
from repro.sim.engine import Environment


@dataclass
class ProfileReport:
    """Outcome of one profiled training run."""

    elapsed_seconds: float
    iterations: int
    messages: int
    sim_wall_time: float
    stats_text: str

    @property
    def iterations_per_second(self) -> float:
        return self.iterations / self.elapsed_seconds

    @property
    def messages_per_second(self) -> float:
        return self.messages / self.elapsed_seconds

    def render(self) -> str:
        lines = [
            f"elapsed          : {self.elapsed_seconds:.3f}s (real)",
            f"simulated time   : {self.sim_wall_time:.3f}s",
            f"iterations       : {self.iterations} "
            f"({self.iterations_per_second:,.0f}/s real)",
            f"messages         : {self.messages} "
            f"({self.messages_per_second:,.0f}/s real)",
            "",
            self.stats_text,
        ]
        return "\n".join(lines)


def profile_spec(
    spec: ExperimentSpec,
    sort: str = "cumulative",
    limit: int = 25,
    warmup: bool = True,
) -> ProfileReport:
    """Profile ``run_spec(spec)`` and summarize the hot functions.

    Args:
        spec: The experiment to run.
        sort: ``pstats`` sort key (``cumulative``, ``tottime``, ...).
        limit: Number of rows in the stats table.
        warmup: Run once unprofiled first so one-time costs (index
            plans, BLAS initialization) do not pollute the profile.
    """
    if warmup:
        run_spec(spec)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run = run_spec(spec)
    profiler.disable()
    elapsed = time.perf_counter() - start

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(limit)
    return ProfileReport(
        elapsed_seconds=elapsed,
        iterations=sum(run.iterations_completed),
        messages=run.messages_sent,
        sim_wall_time=run.wall_time,
        stats_text=stream.getvalue(),
    )


def sim_core_events_per_sec(
    n_processes: int = 64,
    events_per_process: int = 2000,
    repeats: int = 3,
    seed_offset: float = 0.0,
) -> float:
    """Events per second through the bare engine (best of ``repeats``).

    Each process yields ``events_per_process`` timeouts with slightly
    different delays (so the heap actually interleaves processes rather
    than draining one at a time).  No numpy, no protocol state — this
    isolates Event/Timeout allocation, heap scheduling and process
    resumption.
    """

    def ticker(env: Environment, delay: float, count: int):
        timeout = env.timeout
        for _ in range(count):
            yield timeout(delay)

    total_events = n_processes * events_per_process
    best = float("inf")
    for _ in range(repeats):
        env = Environment()
        for i in range(n_processes):
            env.process(
                ticker(env, 1.0 + seed_offset + i * 1e-3, events_per_process)
            )
        start = time.perf_counter()
        env.run()
        best = min(best, time.perf_counter() - start)
    return total_events / best
