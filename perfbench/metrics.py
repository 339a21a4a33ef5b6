"""Outcome bookkeeping and the per-layer roll-up.

The metric catalogue (names, units, directions, bounds) is
``BENCHMARK.json`` at the repository root; ``run.py`` reads it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.instrument import LAYER_OF

@dataclass
class Outcome:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Sample counts behind the reported figures (printed, not gated).
    samples: Dict[str, int] = field(default_factory=dict)
    #: Printed remarks that are not failures.
    notes: List[str] = field(default_factory=list)

    def fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(recorder, results: List[dict], repetitions: int,
                  overhead: float, repetition_s: float,
                  extra: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Roll spans and run summaries up into per-repetition metrics.

    ``results`` are the runs' JSON summaries
    (``repro.harness.io.run_to_dict``, as the service returns them).
    """
    self_s = recorder.self_seconds()
    incl_s = recorder.inclusive_seconds()
    calls = recorder.calls()
    counts = recorder.counts()
    per = 1.0 / max(1, repetitions)

    workers = [w for r in results for w in r["worker_stats"]]

    def mean_stat(key):
        values = [w[key] for w in workers if key in w]
        return statistics.fmean(values) if values else 0.0

    def total(key):
        return sum(r[key] for r in results) * per

    values = {
        "ml.grad_calls": calls["ml.grad"] * per,
        "ml.grad_self_s": self_s["ml.grad"] * per,
        "ml.conv_fwd_s": self_s["ml.conv_fwd"] * per,
        "ml.conv_bwd_s": self_s["ml.conv_bwd"] * per,
        "ml.pool_fwd_s": self_s["ml.pool_fwd"] * per,
        "ml.pool_bwd_s": self_s["ml.pool_bwd"] * per,
        "ml.dense_s": self_s["ml.dense"] * per,
        "ml.send_param_bytes": counts["ml.send_param_bytes"] * per,
        "ml.batch_self_s": self_s["ml.batch"] * per,
        "ml.eval_self_s": self_s["ml.eval"] * per,
        "ml.model_init_s": incl_s["ml.model_init"] * per,
        "optim.step_calls": calls["optim.step"] * per,
        "optim.step_self_s": self_s["optim.step"] * per,
        "core.queue_calls": calls["core.queue"] * per,
        "core.queue_self_s": self_s["core.queue"] * per,
        "core.reduce_calls": calls["core.reduce"] * per,
        "core.reduce_self_s": self_s["core.reduce"] * per,
        "core.gap_self_s": self_s["core.gap"] * per,
        "core.worker_self_s": self_s["core.worker"] * per,
        "core.recv_wait_sim_s": mean_stat("recv_wait_mean"),
        "core.token_wait_sim_s": mean_stat("token_wait_mean"),
        "core.max_gap": max((r["max_gap"] for r in results), default=0.0),
        "core.skipped_iters": sum(sum(r["iterations_skipped"])
                                  for r in results) * per,
        "net.messages": total("messages_sent"),
        "net.bytes": total("bytes_attempted"),
        "net.push_calls": calls["net.push"] * per,
        "net.push_self_s": self_s["net.push"] * per,
        "sim.makespan_s": total("wall_time"),
        "sim.events": counts["sim.events"] * per,
        "sim.engine_self_s": self_s["sim.run"] * per,
        "hetero.duration_self_s": self_s["hetero.duration"] * per,
        "trace.log_calls": calls["trace.log"] * per,
        "trace.log_self_s": self_s["trace.log"] * per,
        "graphs.build_s": incl_s["graphs.build"] * per,
        "graphs.validate_s": incl_s["graphs.validate"] * per,
        "harness.build_cluster_s": incl_s["harness.build_cluster"] * per,
        "protocols.run_tail_s": (incl_s["protocols.run"]
                                 - incl_s["sim.run"]) * per,
        "compression.encode_calls": calls["compression.encode"] * per,
        "compression.encode_self_s": self_s["compression.encode"] * per,
        "membership.events": sum(len(r["membership_events"])
                                 for r in results) * per,
        "service.submit_ms": 0.0,
        "service.poll_calls": 0.0,
        "service.result_ms": 0.0,
        "service.cache_hit_ratio": 0.0,
        "service.useful_ratio": 0.0,
        "service.cache_get_s": self_s["service.cache_get"] * per,
        "service.cache_put_s": self_s["service.cache_put"] * per,
        "service.journal_s": self_s["service.journal"] * per,
        "trace.repetition_s": repetition_s,
        "trace.overhead_ratio": overhead,
    }
    layers: Dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = LAYER_OF[name.split(".", 1)[0]]
        layers[layer] = layers.get(layer, 0.0) + seconds
    for layer in ("sim", "core", "net", "ml", "hetero", "graphs", "harness",
                  "protocols", "compression", "service"):
        values[f"layer.{layer}_self_s"] = layers.get(layer, 0.0) * per
    values.update(extra or {})
    return values
