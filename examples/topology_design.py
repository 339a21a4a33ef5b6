#!/usr/bin/env python3
"""Topology design: spectral gaps vs wall-clock in a real deployment.

Reproduces the paper's Section 7.3.6 insight at example scale: the
textbook guidance "maximize the spectral gap" can lose to machine-aware
graph design once the physical network is heterogeneous, because
iteration *duration* depends on which edges cross machines.

The script:

1. builds a menu of communication graphs for 8 workers spread 3/3/2
   over three machines (including the paper's Figure 21 settings),
2. reports each graph's spectral gap, diameter, and cross-machine
   edge count,
3. trains the CNN workload on each over a two-tier network (fast
   intra-machine, 1 Gb/s shared uplinks) and compares wall-clock.

Usage::

    python examples/topology_design.py [--preset smoke|bench|paper]
"""

import argparse

from repro.graphs import (
    FIG21_MACHINE_OF_WORKER,
    complete,
    fig21_setting1,
    fig21_setting2,
    fig21_setting3,
    ring,
    spectral_gap,
)
from repro.harness import (
    ExperimentSpec,
    ScenarioSpec,
    cnn_workload,
    render_table,
    run_spec,
)
from repro.net.links import Link, cluster_links


def cross_machine_edges(topology, machine_of):
    return sum(
        1
        for (a, b) in topology.edges
        if a != b and machine_of[a] != machine_of[b]
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset", default="smoke", choices=("smoke", "bench", "paper")
    )
    args = parser.parse_args()

    workload = cnn_workload(args.preset)
    iters = {"smoke": 16, "bench": 40, "paper": 120}[args.preset]
    machine_of = FIG21_MACHINE_OF_WORKER
    links = cluster_links(
        machine_of,
        intra=Link(latency=2e-5, bandwidth=10_000.0),
        inter=Link(latency=2e-4, bandwidth=125.0),
    )
    # Machines hosting 3 workers are more contended than the 2-worker one.
    load = ScenarioSpec("straggler", {
        "workers": {w: 1.5 for w in range(8) if machine_of[w] in (0, 1)},
    })

    graphs = {
        "ring(8)": ring(8),
        "complete(8)": complete(8),
        "fig21_setting1": fig21_setting1(),
        "fig21_setting2 (machine-aware)": fig21_setting2(),
        "fig21_setting3 (machine-aware)": fig21_setting3(),
    }

    rows = []
    for label, topology in graphs.items():
        run = run_spec(
            ExperimentSpec(
                name=label,
                workload=workload,
                topology=topology,
                scenario=load,
                max_iter=iters,
                seed=3,
                links=links,
                machines=machine_of,
            )
        )
        rows.append(
            {
                "graph": label,
                "spectral_gap": spectral_gap(topology),
                "diameter": topology.diameter(),
                "cross_edges": cross_machine_edges(topology, machine_of),
                "wall_time": run.wall_time,
                "iter_rate": run.iteration_rate(),
                "final_accuracy": run.final_accuracy,
            }
        )
        print(f"  trained on {label}")

    rows.sort(key=lambda row: row["wall_time"])
    print()
    print(
        render_table(
            rows,
            title="Graphs ranked by wall-clock (8 workers on 3 machines)",
        )
    )
    print()
    print(
        "Reading guide: the all-reduce graph has the best spectral gap but\n"
        "the most cross-machine edges; the machine-aware designs trade a\n"
        "worse gap for cheap iterations and win on wall-clock — the paper's\n"
        "Figure 20 conclusion."
    )


if __name__ == "__main__":
    main()
