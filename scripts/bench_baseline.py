#!/usr/bin/env python
"""Measure the perf baseline and update BENCH_BASELINE.json.

Records wall-clock numbers for the repository's standing perf
workloads:

* ``fig12_heterogeneity(preset="bench", workload_name="cnn")`` — the
  ML-heavy acceptance figure (min over ``--repeats`` runs),
* the ``fig24`` 64-worker hop scaling cell (svm/bench, 40 iterations,
  light tracing — min of 3),
* the bare-engine sim-core microbenchmark (events/sec, best of 3),
* the experiment-service load benchmark (4 concurrent HTTP clients
  against an in-process ``repro serve`` stack: a cold round computing
  every cell, then a warm round served entirely from the result
  cache),
* conv/pool kernel microbenchmarks (bench-preset shapes, float32),

alongside two frozen reference points: the seed commit (``seed``) and
the measurement taken immediately before PR 4's simulator-core
refactor (``pr4_pre_refactor``, same-machine alternating A/B).  Every
run *appends* a dated entry to the ``history`` list, so the perf
trajectory accumulates instead of being overwritten.

This container's CPU throughput oscillates between fast and slow
epochs (~1.5-2x over minutes); min-of-N per metric plus the recorded
alternating pre/post A/B keeps ratios meaningful.

Usage::

    PYTHONPATH=src python scripts/bench_baseline.py \
        [--output BENCH_BASELINE.json] [--repeats 2] [--label "..."]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.graphs import ring_based
from repro.harness.figures import fig12_heterogeneity
from repro.harness.io import atomic_write_json
from repro.harness.parallel import default_jobs
from repro.harness.profiling import sim_core_events_per_sec
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.ml.layers import Conv2D, MaxPool2D
from repro.protocols.base import LIGHT_TRACE

#: Measured at the seed commit (46021bc) on the 1-CPU reference
#: container, sequential figures, float64 conv path with np.add.at
#: col2im recomputing im2col indices every call.
SEED_BASELINE = {
    "fig12_bench_cnn_seconds": 8.41,
    "conv_forward_us": 158.6,
    "conv_backward_us": 562.0,
    "maxpool_forward_us": 171.3,
    "maxpool_backward_us": 37.8,
}

#: Measured at the start of PR 4 (commit 6986d1d, pre-refactor code) on
#: the same container via alternating pre/post A/B subprocess rounds
#: (min over rounds, warm process; fig24 cell without light tracing —
#: the feature did not exist yet).
PR4_PRE_REFACTOR = {
    "fig12_bench_cnn_seconds": 4.04,
    "fig24_hop64_seconds": 0.52,
    "sim_core_events_per_sec": 625_000,
}

# Bench-preset CNN first-block shapes, matching the profile hot spot.
CONV_SHAPE = dict(n=32, c=3, h=8, filters=4, k=3, pad=1)
POOL_SHAPE = dict(n=32, c=4, h=8, size=2)


def _time_us(fn, reps: int = 2000) -> float:
    fn()  # warm caches (index plans, BLAS init)
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e6


def conv_microbench() -> dict:
    rng = np.random.default_rng(0)
    s = CONV_SHAPE
    layer = Conv2D(s["c"], s["filters"], s["k"], rng, pad=s["pad"])
    layer.W.data = layer.W.data.astype(np.float32)
    layer.b.data = layer.b.data.astype(np.float32)
    layer.W.grad = np.zeros_like(layer.W.data)
    layer.b.grad = np.zeros_like(layer.b.data)
    x = rng.normal(size=(s["n"], s["c"], s["h"], s["h"])).astype(np.float32)
    out = layer.forward(x, training=True)
    dout = rng.normal(size=out.shape).astype(np.float32)
    forward_us = _time_us(lambda: layer.forward(x, training=True))
    backward_us = _time_us(lambda: layer.backward(dout))
    return {"conv_forward_us": forward_us, "conv_backward_us": backward_us}


def pool_microbench() -> dict:
    rng = np.random.default_rng(0)
    s = POOL_SHAPE
    layer = MaxPool2D(s["size"])
    x = rng.normal(size=(s["n"], s["c"], s["h"], s["h"])).astype(np.float32)
    out = layer.forward(x, training=True)
    dout = rng.normal(size=out.shape).astype(np.float32)
    forward_us = _time_us(lambda: layer.forward(x, training=True))
    backward_us = _time_us(lambda: layer.backward(dout))
    return {"maxpool_forward_us": forward_us, "maxpool_backward_us": backward_us}


def figure_bench(repeats: int) -> dict:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fig12_heterogeneity(preset="bench", workload_name="cnn")
        best = min(best, time.perf_counter() - start)
        if not result.passed():
            raise SystemExit(f"fig12 shape checks failed: {result.failures()}")
    return {"fig12_bench_cnn_seconds": round(best, 3)}


def fig25_bench() -> dict:
    """The fig25 churn study (the membership-plane acceptance number)."""
    from repro.harness.figures import fig25_churn

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = fig25_churn(preset="bench", workload_name="svm")
        best = min(best, time.perf_counter() - start)
        if not result.passed():
            raise SystemExit(
                f"fig25 shape checks failed: {result.failures()}"
            )
    return {"fig25_bench_seconds": round(best, 3)}


def fig24_cell_bench() -> dict:
    """The fig24 64-worker hop cell (the scaling acceptance number)."""
    spec = ExperimentSpec(
        name="scale/hop/64",
        workload=svm_workload("bench"),
        topology=ring_based(64),
        protocol="hop",
        max_iter=40,
        seed=0,
        trace_channels=LIGHT_TRACE,
    )
    run_spec(spec)  # warm (index plans, imports)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run = run_spec(spec)
        best = min(best, time.perf_counter() - start)
    if any(c != 40 for c in run.iterations_completed):
        raise SystemExit("fig24 cell did not complete all iterations")
    return {"fig24_hop64_seconds": round(best, 3)}


def sim_core_bench() -> dict:
    return {"sim_core_events_per_sec": round(sim_core_events_per_sec())}


def _visible_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def service_load_bench() -> dict:
    """Concurrent-client load against an in-process experiment service.

    Four clients each submit a one-cell sweep over HTTP and wait for
    completion; the cold round computes every cell through the process
    pool, the warm round replays the identical sweeps and must be
    served entirely from the verified result cache.
    """
    import tempfile
    import threading

    from repro.service.client import ServiceClient
    from repro.service.server import ExperimentService, make_server

    specs = [
        {"workers": 4, "max_iter": 5, "seed": seed} for seed in range(4)
    ]
    with tempfile.TemporaryDirectory() as state:
        service = ExperimentService(state, pool_workers=2)
        httpd = make_server(service, port=0)
        server_thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        server_thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"

        def one_client(spec: dict) -> None:
            client = ServiceClient(url, timeout=60.0)
            ticket = client.submit([spec])
            client.wait_for_sweep(ticket["sweep_id"], timeout=300)

        def round_seconds() -> float:
            threads = [
                threading.Thread(target=one_client, args=(spec,))
                for spec in specs
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - start

        cold = round_seconds()
        warm = round_seconds()
        stats = service.stats()
        if stats["runs_computed"] != len(specs):
            raise SystemExit(
                "service warm round recomputed: "
                f"{stats['runs_computed']} runs for {len(specs)} specs"
            )
        httpd.shutdown()
        httpd.server_close()
        service.scheduler.shutdown(timeout=30)
    return {
        "service_cold_sweep_seconds": round(cold, 3),
        "service_warm_sweep_seconds": round(warm, 3),
    }


def _load_history(path: Path) -> list:
    """Existing history (synthesizing one entry from a legacy snapshot)."""
    if not path.exists():
        return []
    previous = json.loads(path.read_text())
    history = previous.get("history")
    if history is not None:
        return history
    # Legacy single-snapshot layout: preserve it as the first entry.
    return [
        {
            "date": "2026-07-01",
            "label": "PR 1-3 snapshot (legacy single-entry layout)",
            "current": previous.get("current", {}),
        }
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_BASELINE.json"),
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="fig12 timing runs (min is recorded)",
    )
    parser.add_argument(
        "--label", default="",
        help="history-entry label (e.g. the PR being measured)",
    )
    args = parser.parse_args(argv)
    output = Path(args.output)

    current = {}
    current.update(figure_bench(args.repeats))
    current.update(fig24_cell_bench())
    current.update(fig25_bench())
    current.update(sim_core_bench())
    current.update(service_load_bench())
    current.update(conv_microbench())
    current.update(pool_microbench())
    current = {key: round(value, 2) for key, value in current.items()}

    history = _load_history(output)
    history.append(
        {
            "date": datetime.date.today().isoformat(),
            "label": args.label or "bench_baseline run",
            "current": current,
        }
    )

    def ratios(reference: dict, invert_keys=("sim_core_events_per_sec",)):
        out = {}
        for key, ref in reference.items():
            value = current.get(key)
            if not value or not ref:
                continue
            # Throughput metrics improve upward; times improve downward.
            out[key] = round(
                value / ref if key in invert_keys else ref / value, 2
            )
        return out

    report = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "affinity_cpus": _visible_cpus(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "default_jobs": default_jobs(),
        },
        "workload": "fig12_heterogeneity(preset='bench', workload_name='cnn')"
                    " + fig24 hop/64 scaling cell (svm bench, 40 iters,"
                    " light trace) + sim-core events/sec"
                    " + service load bench (4 concurrent HTTP clients,"
                    " cold compute round then warm cache round)"
                    " + bench-preset conv/pool kernel shapes (float32)",
        "methodology": "min-of-N per metric (N: fig12 --repeats, fig24 3,"
                       " sim-core 3); this container's CPU oscillates"
                       " ~1.5-2x between throughput epochs, so ratios"
                       " against the recorded pre-refactor numbers were"
                       " validated with alternating same-epoch A/B runs",
        "seed": SEED_BASELINE,
        "pr4_pre_refactor": PR4_PRE_REFACTOR,
        "current": current,
        "speedup_vs_seed": ratios(SEED_BASELINE),
        "speedup_vs_pre_refactor": ratios(PR4_PRE_REFACTOR),
        "history": history,
    }
    atomic_write_json(output, report)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
