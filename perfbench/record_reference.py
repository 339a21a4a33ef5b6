#!/usr/bin/env python3
"""Record ``reference.json``: the expected output of every cell.

For each of the ``INPUT_SETS`` input sets it runs every cell of every
workload in this process and stores

* for the in-process workloads, a SHA-256 over the exactly-checked
  simulated statistics (simulated time, per-worker iterations completed
  and skipped, messages, bytes attempted, max gap) and the test loss;
  the test-loss tolerance of a cell is the spread (max - min) of its
  test loss across :data:`TOLERANCE_SEEDS` model seeds, since a
  legitimate numerics change (a dtype fix) may move it that far;
* for the service workload, a SHA-256 of each cell's golden
  fingerprint as the service's pool workers compute it.

Re-record only when the simulated model is meant to change, and say so:

    python3 perfbench/record_reference.py [--workloads cnn-hetero16 ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Model seeds whose test-loss spread sets the tolerance.
TOLERANCE_SEEDS = 8


def record_in_process(workload: str) -> dict:
    from perfbench import cells
    from repro.protocols import registry

    make_cells = cells.IN_PROCESS[workload]
    sets, losses = {}, {}
    for seed in range(cells.INPUT_SETS):
        sets[str(seed)] = {}
        for label, spec in make_cells(seed):
            stats = cells.run_stats(registry.build_cluster(spec).run())
            sets[str(seed)][label] = {
                "exact_sha256": cells.exact_digest(stats),
                "test_loss": stats["test_loss"],
                "sim_time_s": float.fromhex(stats["sim_time_s"]),
                "sim_iter_s": float.fromhex(stats["sim_iter_s"]),
            }
        print(f"{workload}: input set {seed} recorded", flush=True)
    for model_seed in range(TOLERANCE_SEEDS):
        for label, spec in make_cells(0, model_seed=model_seed):
            run = registry.build_cluster(spec).run()
            losses.setdefault(label, []).append(float(run.final_loss))
        print(f"{workload}: model seed {model_seed} recorded", flush=True)
    return {
        "input_sets": sets,
        "test_loss_tolerance": {
            label: max(values) - min(values)
            for label, values in losses.items()
        },
    }


def record_service() -> dict:
    from perfbench import cells
    from repro.service.runner import execute_cell

    sets = {}
    for seed in range(cells.INPUT_SETS):
        sets[str(seed)] = {
            label: cells.digest(execute_cell(payload)["fingerprint"])
            for label, payload in cells.service_payloads(seed)
        }
        print(f"service-sweep: input set {seed} recorded", flush=True)
    return {"input_sets": sets}


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import cells

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(cells.WORKLOADS),
                        choices=cells.WORKLOADS)
    args = parser.parse_args()
    reference = (cells.load_reference() if cells.REFERENCE_PATH.exists()
                 else {})
    reference["input_sets"] = cells.INPUT_SETS
    for workload in args.workloads:
        if workload == "service-sweep":
            reference[workload] = record_service()
        else:
            reference[workload] = record_in_process(workload)
    cells.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
