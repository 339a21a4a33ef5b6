"""Ablations: design choices the paper discusses but does not plot.

Five studies, each packaged as a :class:`~repro.harness.figures.FigureResult`
so the benchmark harness can assert their expected shapes:

* **Eq. (2) vs simple averaging** of stale updates (Section 4.4's
  "found the latter performs slightly better").
* **Parallel vs serial computation graph** (Section 3.2's execution
  vs. statistical efficiency trade-off).
* **max_ig sweep** — Theorem 2's gap/memory/tolerance trade-off.
* **Rotating vs tagged update queues** (Section 6.1) — identical
  observable behavior; the rotating implementation is the
  memory-bounded one.
* **Hop vs AD-PSGD** (Section 5's discussion of why Hop keeps bounded
  gaps instead of adopting AD-PSGD's unbounded asynchrony).
* **Randomized vs static partial-all-reduce groups** (Prague,
  arXiv:1909.08029: randomized regrouping is what mixes parameters
  across the cluster; static groups keep the group-local barrier but
  never exchange information between groups).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.config import (
    STANDARD,
    HopConfig,
    backup_config,
    staleness_config,
)
from repro.graphs import bipartite_ring, ring_based
from repro.harness.figures import FigureResult, _scale
from repro.harness.results import final_smoothed_loss, wall_time_speedup
from repro.harness.parallel import run_specs
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import by_name
from repro.scenarios import RANDOM_6X, deterministic_straggler


def ablation_stale_reduce(
    preset: str = "bench", workload_name: str = "cnn", seed: int = 0
) -> FigureResult:
    """Equation (2) weighting vs simple averaging of stale updates."""
    n, max_iter = _scale(preset)
    workload = by_name(workload_name, preset)
    result = FigureResult(
        "ablation_stale_reduce",
        "Staleness aggregation: Eq. (2) weighting vs simple average "
        f"({workload_name}, 6x random slowdown)",
    )
    seeds = [seed, seed + 1] if preset == "smoke" else [seed, seed + 1, seed + 2]
    flavors = (("eq2_weighted", "weighted"), ("uniform", "uniform"))
    runs = run_specs({
        f"{label}@{run_seed}": ExperimentSpec(
            label,
            workload,
            ring_based(n),
            config=staleness_config(
                staleness=5, max_ig=8, stale_reduce=flavor
            ),
            scenario=RANDOM_6X,
            max_iter=max_iter,
            seed=run_seed,
        )
        for run_seed in seeds
        for label, flavor in flavors
    })
    losses: Dict[str, list] = {"eq2_weighted": [], "uniform": []}
    wall_times: Dict[str, list] = {"eq2_weighted": [], "uniform": []}
    for run_seed in seeds:
        for label, _ in flavors:
            run = runs[f"{label}@{run_seed}"]
            losses[label].append(final_smoothed_loss(run))
            wall_times[label].append(run.wall_time)
    for label in ("eq2_weighted", "uniform"):
        result.rows.append(
            {
                "reduce": label,
                "mean_final_loss": float(np.mean(losses[label])),
                "loss_per_seed": "/".join(f"{v:.3f}" for v in losses[label]),
                "wall_time": float(np.mean(wall_times[label])),
            }
        )
    weighted = float(np.mean(losses["eq2_weighted"]))
    uniform = float(np.mean(losses["uniform"]))
    result.check(
        "identical timing (aggregation does not change waiting)",
        np.allclose(wall_times["eq2_weighted"], wall_times["uniform"]),
        "",
    )
    result.check(
        "Eq. (2) comparable to simple averaging across seeds "
        "(paper: slightly better, and notes the formula is not optimized)",
        weighted <= uniform * 1.10,
        f"weighted={weighted:.3f} uniform={uniform:.3f}",
    )
    return result


def ablation_computation_graph(
    preset: str = "bench", workload_name: str = "svm", seed: int = 0
) -> FigureResult:
    """Parallel (Fig. 2b) vs serial (Fig. 2a) computation graphs."""
    n, max_iter = _scale(preset)
    workload = by_name(workload_name, preset)
    result = FigureResult(
        "ablation_computation_graph",
        f"Parallel vs serial computation graph ({workload_name})",
    )
    runs = run_specs({
        label: ExperimentSpec(
            label,
            workload,
            ring_based(n),
            config=HopConfig(computation_graph=label),
            max_iter=max_iter,
            seed=seed,
        )
        for label in ("parallel", "serial")
    })
    for label in ("parallel", "serial"):
        result.rows.append(
            {
                "graph": label,
                "wall_time": runs[label].wall_time,
                "iter_rate": runs[label].iteration_rate(),
                "final_loss": final_smoothed_loss(runs[label]),
            }
        )
    result.check(
        "parallel iterations at least as fast (Compute overlaps Reduce)",
        runs["parallel"].wall_time <= runs["serial"].wall_time * 1.01,
        f"parallel={runs['parallel'].wall_time:.1f}s "
        f"serial={runs['serial'].wall_time:.1f}s",
    )
    result.check(
        "serial statistical efficiency no worse (exact gradients)",
        final_smoothed_loss(runs["serial"])
        <= final_smoothed_loss(runs["parallel"]) * 1.15,
        "",
    )
    return result


def ablation_max_ig(
    preset: str = "bench", workload_name: str = "svm", seed: int = 0
) -> FigureResult:
    """Theorem 2's knob: larger max_ig buys straggler tolerance."""
    n, max_iter = _scale(preset)
    workload = by_name(workload_name, preset)
    result = FigureResult(
        "ablation_max_ig",
        f"max_ig sweep under a 4x straggler ({workload_name}, backup mode)",
    )
    straggler = deterministic_straggler(worker=0, factor=4.0)
    runs = run_specs({
        max_ig: ExperimentSpec(
            f"max_ig={max_ig}",
            workload,
            ring_based(n),
            config=backup_config(n_backup=1, max_ig=max_ig),
            scenario=straggler,
            max_iter=max_iter,
            seed=seed,
        )
        for max_ig in (1, 2, 4, 8)
    })
    walls: Dict[int, float] = {}
    for max_ig, run in runs.items():
        walls[max_ig] = run.wall_time
        result.rows.append(
            {
                "max_ig": max_ig,
                "wall_time": run.wall_time,
                "max_gap": run.gap.max_observed(),
                "final_loss": final_smoothed_loss(run),
            }
        )
        result.check(
            f"max_ig={max_ig}: observed gap within Theorem 2's adjacent bound",
            run.gap.max_observed() <= max_ig * ring_based(n).diameter(),
            f"gap={run.gap.max_observed():g}",
        )
    result.check(
        "larger max_ig tolerates the straggler longer (weakly faster)",
        walls[8] <= walls[1] + 1e-9,
        f"wall(1)={walls[1]:.1f}s wall(8)={walls[8]:.1f}s",
    )
    return result


def ablation_queue_impl(
    preset: str = "bench", workload_name: str = "svm", seed: int = 0
) -> FigureResult:
    """Section 6.1: rotating queues match the tagged single queue."""
    n, max_iter = _scale(preset)
    workload = by_name(workload_name, preset)
    result = FigureResult(
        "ablation_queue_impl",
        "Rotating (Sec 6.1) vs tagged update-queue implementations "
        f"({workload_name}, 6x random slowdown)",
    )
    runs = run_specs({
        impl: ExperimentSpec(
            impl,
            workload,
            ring_based(n),
            config=HopConfig(queue_impl=impl, max_ig=4),
            scenario=RANDOM_6X,
            max_iter=max_iter,
            seed=seed,
        )
        for impl in ("rotating", "tagged")
    })
    for impl in ("rotating", "tagged"):
        result.rows.append(
            {
                "impl": impl,
                "wall_time": runs[impl].wall_time,
                "final_loss": final_smoothed_loss(runs[impl]),
                "max_gap": runs[impl].gap.max_observed(),
            }
        )
    result.check(
        "identical wall-clock behavior",
        abs(runs["rotating"].wall_time - runs["tagged"].wall_time) < 1e-9,
        "",
    )
    result.check(
        "identical training outcome (bit-for-bit final parameters)",
        bool(
            np.array_equal(
                runs["rotating"].final_params, runs["tagged"].final_params
            )
        ),
        "",
    )
    return result


def ablation_vs_adpsgd(
    preset: str = "bench", workload_name: str = "svm", seed: int = 0
) -> FigureResult:
    """Hop's bounded-gap design vs AD-PSGD's unconstrained gossip."""
    n, max_iter = _scale(preset)
    workload = by_name(workload_name, preset)
    result = FigureResult(
        "ablation_vs_adpsgd",
        f"Hop (backup) vs AD-PSGD under 6x random slowdown ({workload_name})",
    )
    runs = run_specs({
        "hop": ExperimentSpec(
            "hop",
            workload,
            ring_based(n),
            config=backup_config(n_backup=1, max_ig=4),
            scenario=RANDOM_6X,
            max_iter=max_iter,
            seed=seed,
        ),
        "adpsgd": ExperimentSpec(
            "adpsgd",
            workload,
            bipartite_ring(n),
            protocol="adpsgd",
            scenario=RANDOM_6X,
            max_iter=max_iter,
            seed=seed,
        ),
    })
    hop, adpsgd = runs["hop"], runs["adpsgd"]
    for label, run in (("hop/backup", hop), ("adpsgd", adpsgd)):
        result.rows.append(
            {
                "protocol": label,
                "wall_time": run.wall_time,
                "iter_rate": run.iteration_rate(),
                "final_loss": final_smoothed_loss(run),
                "max_gap": run.gap.max_observed(),
                "accuracy": run.final_accuracy,
            }
        )
    result.check(
        "Hop's gap stays bounded while AD-PSGD's is unconstrained",
        hop.gap.max_observed() <= adpsgd.gap.max_observed() + 8,
        f"hop={hop.gap.max_observed():g} adpsgd={adpsgd.gap.max_observed():g}",
    )
    result.check(
        "both converge",
        final_smoothed_loss(hop) < 1.0 and final_smoothed_loss(adpsgd) < 1.0,
        "",
    )
    result.notes = (
        "AD-PSGD requires a bipartite graph (even ring here); Hop runs on "
        "the denser ring-based graph. The point of this ablation is the "
        "graph-freedom and gap-control trade-off discussed in Section 5."
    )
    return result


def ablation_partial_groups(
    preset: str = "bench", workload_name: str = "svm", seed: int = 0
) -> FigureResult:
    """Randomized vs static group generation for partial all-reduce."""
    from repro.protocols.partial_allreduce import GroupSchedule

    n, max_iter = _scale(preset)
    workload = by_name(workload_name, preset)
    result = FigureResult(
        "ablation_partial_groups",
        "Partial all-reduce: randomized vs static groups "
        f"({workload_name}, 4x straggler)",
    )
    straggler = deterministic_straggler(worker=0, factor=4.0)
    runs = run_specs({
        label: ExperimentSpec(
            label,
            workload,
            ring_based(n),
            protocol="partial-allreduce",
            static_groups=static,
            scenario=straggler,
            max_iter=max_iter,
            seed=seed,
        )
        for label, static in (("randomized", False), ("static", True))
    })
    for label, run in runs.items():
        result.rows.append(
            {
                "groups": label,
                "wall_time": run.wall_time,
                "consensus": run.consensus,
                "final_loss": final_smoothed_loss(run),
                "max_gap": run.gap.max_observed(),
            }
        )

    schedule = GroupSchedule(n, group_size=4, seed=seed)
    conflict_free = True
    try:
        for k in range(max_iter):
            GroupSchedule.validate_partition(
                schedule.groups_for_round(k), n
            )
    except ValueError:
        conflict_free = False
    result.check(
        "group generation is conflict-free every round",
        conflict_free,
        f"{max_iter} rounds validated",
    )
    result.check(
        "randomized regrouping mixes globally (consensus distance "
        "well below static groups)",
        runs["randomized"].consensus < runs["static"].consensus * 0.75,
        f"randomized={runs['randomized'].consensus:.4f} "
        f"static={runs['static'].consensus:.4f}",
    )
    result.check(
        "randomization is (nearly) free on wall-clock "
        "(same group-local barrier structure)",
        runs["randomized"].wall_time <= runs["static"].wall_time * 1.25,
        f"randomized={runs['randomized'].wall_time:.1f}s "
        f"static={runs['static'].wall_time:.1f}s",
    )
    result.check(
        "both variants converge",
        final_smoothed_loss(runs["randomized"]) < 1.0
        and final_smoothed_loss(runs["static"]) < 1.0,
        "",
    )
    return result


ALL_ABLATIONS = {
    "stale_reduce": ablation_stale_reduce,
    "computation_graph": ablation_computation_graph,
    "max_ig": ablation_max_ig,
    "queue_impl": ablation_queue_impl,
    "vs_adpsgd": ablation_vs_adpsgd,
    "partial_groups": ablation_partial_groups,
}
