"""The cells each workload runs, and the statistics checked on them.

The benchmark makes its inputs; the simulator receives only what was
generated.  ``--seed`` picks one of :data:`INPUT_SETS` input sets
(``seed mod INPUT_SETS``), and an input set is a heterogeneity pattern:
the paper's random 6x slowdown (each worker-iteration is slowed 6x with
probability 1/n), drawn here and replayed through the simulator's
``trace`` scenario.  Every cell trains from the same model seed
(:data:`MODEL_SEED`), because the 40-iteration CNN is chaotic in its
initialisation: across model seeds its test loss spans 0.3-1.9, which
would drown every timing in input noise.

``reference.json`` records the expected statistics of every cell of
every input set, written by ``record_reference.py``; that is what lets
every run check its outputs exactly, whatever seed it is given.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Number of recorded input sets; ``--seed`` is folded onto them.
INPUT_SETS = 16
#: Model initialisation, data order and every other in-simulator draw.
MODEL_SEED = 0
#: The paper's random slowdown (Section 7.3.1): factor 6, p = 1/n.
SLOWDOWN_FACTOR = 6.0

#: fig12's bench grid: 16 workers, 40 iterations per worker.
CNN_WORKERS = 16
CNN_ITERS = 40
#: fig24's largest tier, sized so one cell takes a few host seconds.
SVM_WORKERS = 1024
SVM_ITERS = 10
#: The service sweep: svm bench on 16 workers, sized so the cold sweep
#: keeps both pool workers busy for a few seconds.
SERVICE_WORKERS = 16
SERVICE_ITERS = 120

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("cnn-hetero16", "svm-hop1024", "service-sweep")


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def slowdown_trace(seed: int, n_workers: int, iterations: int) -> dict:
    """``trace`` scenario params: random 6x draws of one input set."""
    rng = np.random.default_rng([input_set(seed), n_workers, iterations])
    slowed = np.argwhere(rng.random((n_workers, iterations)) < 1.0 / n_workers)
    factors: Dict[str, Dict[str, float]] = {}
    for worker, iteration in slowed.tolist():
        factors.setdefault(str(worker), {})[str(iteration)] = SLOWDOWN_FACTOR
    return {"factors": factors,
            "source": f"perfbench random 6x, input set {input_set(seed)}"}


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def cnn_cells(seed: int, model_seed: int = MODEL_SEED
              ) -> List[Tuple[str, object]]:
    """fig12's grid: Hop standard mode over 3 graphs x {clean, 6x}."""
    from repro.graphs import builders
    from repro.harness.spec import ExperimentSpec
    from repro.harness.workloads import cnn_workload
    from repro.scenarios import ScenarioSpec

    workload = cnn_workload("bench")
    cells = []
    for graph in ("ring", "ring_based", "double_ring"):
        topology = getattr(builders, graph)(CNN_WORKERS)
        for label, scenario in (
            ("clean", ScenarioSpec("none")),
            ("random6x", ScenarioSpec("trace", slowdown_trace(
                seed, CNN_WORKERS, CNN_ITERS))),
        ):
            name = f"{graph}/{label}"
            cells.append((name, ExperimentSpec(
                name=name,
                workload=workload,
                topology=topology,
                scenario=scenario,
                max_iter=CNN_ITERS,
                seed=model_seed,
            )))
    return cells


def svm_cells(seed: int, model_seed: int = MODEL_SEED
              ) -> List[Tuple[str, object]]:
    """Hop backup mode with skipping, 1024 workers, random 6x."""
    from repro.core.config import SkipConfig, backup_config
    from repro.graphs import builders
    from repro.harness.spec import ExperimentSpec
    from repro.harness.workloads import svm_workload
    from repro.protocols.base import LIGHT_TRACE
    from repro.scenarios import ScenarioSpec

    name = "hop-backup/ring_based1024/random6x"
    return [(name, ExperimentSpec(
        name=name,
        workload=svm_workload("bench"),
        topology=builders.ring_based(SVM_WORKERS),
        config=backup_config(1, skip=SkipConfig(max_skip=2)),
        scenario=ScenarioSpec("trace", slowdown_trace(
            seed, SVM_WORKERS, SVM_ITERS)),
        max_iter=SVM_ITERS,
        seed=model_seed,
        trace_channels=LIGHT_TRACE,
    ))]


IN_PROCESS = {"cnn-hetero16": cnn_cells, "svm-hop1024": svm_cells}


def run_stats(run) -> Dict[str, object]:
    """The statistics a cell is checked on.

    Everything but ``test_loss`` is simulated-time bookkeeping, which
    does not depend on floating-point numerics, and must match the
    reference exactly.  Floats are IEEE-754 hex so JSON cannot round
    them.
    """
    completed = [int(c) for c in run.iterations_completed]
    skipped = [int(s) for s in run.iterations_skipped]
    return {
        "sim_time_s": float(run.wall_time).hex(),
        "sim_iter_s": mean_iteration_s(run.worker_stats).hex(),
        "iterations_completed": completed,
        "iterations_skipped": skipped,
        "messages": int(run.messages_sent),
        "bytes_attempted": float(run.bytes_attempted).hex(),
        "max_gap": float(run.gap.max_observed()).hex(),
        "test_loss": float(run.final_loss),
    }


def mean_iteration_s(worker_stats: List[dict]) -> float:
    """Simulated seconds per worker-iteration, averaged over workers."""
    durations = [float(w["iteration_duration_mean"]) for w in worker_stats]
    return sum(durations) / len(durations)


def digest(payload: dict) -> str:
    """SHA-256 of a JSON object with sorted keys."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def exact_digest(stats: Dict[str, object]) -> str:
    """The digest of every exactly-checked field (all but test_loss)."""
    return digest({k: v for k, v in stats.items() if k != "test_loss"})


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
#: Gossip protocols need a bipartite graph (an even ring is one,
#: ring_based is not); the service accepts them on ring_based anyway
#: and the cell then fails inside the pool.
RING_PROTOCOLS = ("adpsgd", "momentum-tracking")


def service_payloads(seed: int) -> List[Tuple[str, dict]]:
    """Every registered protocol x {none, random}, hop+topk, hop+churn."""
    from repro.protocols import registered_protocols

    base = {
        "workload": "svm",
        "preset": "bench",
        "workers": SERVICE_WORKERS,
        "max_iter": SERVICE_ITERS,
        "seed": MODEL_SEED,
    }
    random6x = {"family": "trace", "params": slowdown_trace(
        seed, SERVICE_WORKERS, SERVICE_ITERS)}
    cells = []
    for protocol in registered_protocols():
        for family, scenario in (("none", None), ("random6x", random6x)):
            payload = dict(base, protocol=protocol)
            if protocol in RING_PROTOCOLS:
                payload["graph"] = "ring"
            if protocol == "ps-ssp":
                payload["ps_staleness"] = 2
            if scenario is not None:
                payload["scenario"] = scenario
            cells.append((f"{protocol}/{family}", payload))
    cells.append(("hop/topk", dict(
        base, protocol="hop",
        compression={"scheme": "topk", "params": {"ratio": 0.1}},
    )))
    cells.append(("hop/churn-poisson", dict(
        base, protocol="hop",
        scenario={"family": "churn-poisson", "params": {
            "rate": 0.5, "horizon": SERVICE_ITERS, "rejoin_after": 1,
        }},
    )))
    return cells


# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_in_process(reference: dict, workload: str, seed: int,
                     label: str, stats: Dict[str, object]) -> List[str]:
    """Problems with one in-process cell's stats (empty when correct)."""
    expected = reference[workload]["input_sets"][str(input_set(seed))].get(
        label)
    if expected is None:
        return [f"{label}: no reference recorded"]
    problems = []
    if exact_digest(stats) != expected["exact_sha256"]:
        problems.append(f"{label}: simulated statistics differ from the "
                        "reference")
    tolerance = reference[workload]["test_loss_tolerance"][label]
    if not abs(stats["test_loss"] - expected["test_loss"]) <= tolerance:
        problems.append(
            f"{label}: test_loss {stats['test_loss']:.6g} is further than "
            f"{tolerance:.3g} from the reference {expected['test_loss']:.6g}"
        )
    return problems


def check_service(reference: dict, seed: int, label: str,
                  entry: dict) -> List[str]:
    """Problems with one service result entry (empty when correct)."""
    expected = reference["service-sweep"]["input_sets"][
        str(input_set(seed))].get(label)
    if expected is None:
        return [f"{label}: no reference recorded"]
    if digest(entry.get("fingerprint") or {}) != expected:
        return [f"{label}: golden fingerprint differs from the reference"]
    return []
