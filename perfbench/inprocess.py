"""Timed and traced runs of the in-process workloads (cnn, svm).

A *repetition* runs every cell of the workload once: ``build_cluster``
then ``ProtocolCluster.run``, one after the other in this process (jobs
pinned to 1).  The first repetition is a warm-up; the timed ones follow
until the run's time is spent.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import cells as cellmod
from perfbench.metrics import Outcome, percentile

_clock = time.perf_counter

#: Fresh processes timed for ``setup_s``, spread over the run.
SETUP_PROBES = 5


def _run_repetition(cells, reference, workload, seed, outcome: Outcome,
                    recorder=None) -> Tuple[List[dict], dict]:
    """Run every cell once; returns per-cell timings and stats.

    ``build_cluster`` is looked up on each call, so the traced run
    reaches it through its wrapper.
    """
    from repro.protocols import registry

    timings = []
    stats_by_label = {}
    for label, spec in cells:
        outcome.attempted += 1
        if recorder is not None:
            recorder.cell = label
        try:
            start = _clock()
            cluster = registry.build_cluster(spec)
            built = _clock()
            run = cluster.run()
            end = _clock()
        except Exception as error:  # a failed run is a failed operation
            outcome.fail(f"{label}: {type(error).__name__}: {error}")
            continue
        stats = cellmod.run_stats(run)
        problems = cellmod.check_in_process(
            reference, workload, seed, label, stats)
        if problems:
            outcome.fail(*problems)
        stats_by_label[label] = stats
        executed = sum(stats["iterations_completed"]) - sum(
            stats["iterations_skipped"])
        timings.append({
            "label": label,
            "latency_s": end - start,
            "run_s": end - built,
            "executed": executed,
            "run": run,
        })
    return timings, stats_by_label


def measure(workload: str, seed: int, seconds: float, outcome: Outcome,
            probe_setup: Callable[[], Optional[float]]
            ) -> Dict[str, float]:
    """The untraced run: end-to-end metrics of one in-process workload.

    Each cell's host times are its medians over the run's repetitions,
    and the figures are taken over those per-cell medians: the grid's
    cells differ in cost, so a percentile pooled over every sample
    jumps between cells as their samples interleave.
    :data:`SETUP_PROBES` calls of ``probe_setup`` are spread over the
    run, so ``setup_s`` (their median) samples the whole run rather
    than its first seconds.
    """
    reference = cellmod.load_reference()
    cells = cellmod.IN_PROCESS[workload](seed)
    # Warm-up: index plans and BLAS set-up happen once per process.
    _, warm_stats = _run_repetition(
        cells, reference, workload, seed, outcome)
    # Every repetition starts from a collected heap, so neither its time
    # nor the peak RSS depends on when the last one's garbage was freed.
    gc.collect()

    latency: Dict[str, List[float]] = {}
    run_s: Dict[str, List[float]] = {}
    executed: Dict[str, int] = {}
    setups: List[float] = []
    probes = repetitions = 0
    start = _clock()
    while (not repetitions or probes < SETUP_PROBES
           or _clock() - start < seconds):
        if (probes < SETUP_PROBES
                and _clock() - start >= probes * seconds / SETUP_PROBES):
            probes += 1
            sample = probe_setup()
            if sample is not None:
                setups.append(sample)
            continue
        timings, stats = _run_repetition(
            cells, reference, workload, seed, outcome)
        if stats != warm_stats:
            outcome.fail("a repetition's statistics differ from the "
                         "warm-up's in the same process")
        if len(timings) != len(cells):
            break
        repetitions += 1
        for t in timings:
            label = t["label"]
            latency.setdefault(label, []).append(t["latency_s"])
            run_s.setdefault(label, []).append(t["run_s"])
            executed[label] = t["executed"]
        del timings
        gc.collect()
    outcome.samples["repetitions"] = repetitions
    outcome.samples["setup_probes"] = len(setups)
    if not repetitions or not setups:
        return {}
    latencies = [statistics.median(v) for v in latency.values()]
    return {
        "setup_s": statistics.median(setups),
        "iters_per_s": sum(executed.values()) / sum(
            statistics.median(v) for v in run_s.values()),
        "cold_cells_per_s": len(latencies) / sum(latencies),
        "warm_p50_ms": statistics.median(latencies) * 1e3,
        "warm_p95_ms": percentile(latencies, 95) * 1e3,
        "sim_iter_ms": 1e3 * statistics.fmean(
            float.fromhex(s["sim_iter_s"]) for s in warm_stats.values()),
        "test_loss": statistics.median(
            s["test_loss"] for s in warm_stats.values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload: str, seed: int, seconds: float, outcome: Outcome,
          recorder, span_path) -> Dict[str, float]:
    """The traced run: per-layer metrics of one in-process workload.

    Each repetition also builds the workload and its topologies, so the
    graph builders, ``Topology.validate`` and the model factories are
    measured.  An untraced repetition runs first; every traced
    repetition must reproduce its statistics bitwise.
    """
    from perfbench import instrument
    from perfbench.metrics import layer_metrics
    from repro.harness.io import run_to_dict

    reference = cellmod.load_reference()
    make_cells = cellmod.IN_PROCESS[workload]

    def repetition():
        start = _clock()
        recorder.cell = "setup"
        cells = make_cells(seed)
        timings, stats = _run_repetition(
            cells, reference, workload, seed, outcome, recorder)
        return _clock() - start, timings, stats

    make_cells(seed)  # imports and lazy set-up outside both timings
    untraced_s, _, untraced_stats = repetition()

    patches = instrument.install(recorder)
    outcome.notes.extend(f"not wrapped: {m}" for m in patches.missing)
    traced_s, results = [], []
    try:
        deadline = _clock() + seconds
        while not traced_s or _clock() < deadline:
            elapsed, timings, stats = repetition()
            recorder.keep_spans = False
            if stats != untraced_stats:
                outcome.fail("traced statistics differ from the untraced "
                             "run's")
            traced_s.append(elapsed)
            results.extend(run_to_dict(t["run"]) for t in timings)
            if len(timings) != len(untraced_stats):
                break
    finally:
        patches.undo()
    outcome.samples["repetitions"] = len(traced_s)
    outcome.samples["spans_written"] = recorder.write_spans(span_path)
    return layer_metrics(
        recorder, results, len(traced_s),
        overhead=statistics.median(traced_s) / untraced_s,
        repetition_s=statistics.median(traced_s),
    )
