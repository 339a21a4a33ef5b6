"""Set-up probe: one fresh process, from start until ready to train.

Run by ``run.py`` for the ``setup_s`` metric of the in-process
workloads: it imports the simulator, builds the dataset, the
topologies and every cell's cluster, prints ``ready`` and exits.  The
parent times it from process start to that line.

    python3 perfbench/probe.py --workload svm-hop1024 --seed 0
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import cells
    from repro.protocols import registry

    for _, spec in cells.IN_PROCESS[args.workload](args.seed):
        registry.build_cluster(spec)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
