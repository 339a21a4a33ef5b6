#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cnn-hetero16 --seed 3 \\
        --seconds 30 --trace 0

Workloads: ``cnn-hetero16``, ``svm-hop1024``, ``service-sweep``.
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it wraps each layer's public
functions and reports per-layer self times and counts instead.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output check
passed.  Runs from the root of a checkout that holds ``src/repro``;
scratch state goes to ``.perfbench-work/`` and span files to
``.perfbench-spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.cells import WORKLOADS  # noqa: E402
from perfbench.metrics import Outcome  # noqa: E402
from perfbench.service import read_line  # noqa: E402

PROBE_TIMEOUT_S = 60.0


def _probe_setup(workload: str, seed: int, outcome):
    """Seconds from a fresh probe process's start until it is ready.

    ``None`` (and a failed operation) when the probe does not come up.
    """
    outcome.attempted += 1
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = read_line(proc, PROBE_TIMEOUT_S)
        ready = time.perf_counter() - start
        if line:
            proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        outcome.fail(f"set-up probe exited {proc.returncode}")
        return None
    return ready


def _run(args, work: Path, outcome) -> dict:
    from perfbench import inprocess, service
    from perfbench.spans import Recorder

    if args.trace:
        span_path = (ROOT / ".perfbench-spans"
                     / f"{args.workload}-seed{args.seed}.csv.gz")
        recorder = Recorder()
        if args.workload == "service-sweep":
            return service.trace(work, args.seed, args.seconds, outcome,
                                 recorder, span_path)
        return inprocess.trace(args.workload, args.seed, args.seconds,
                               outcome, recorder, span_path)
    if args.workload == "service-sweep":
        return service.measure(ROOT, work, args.seed, args.seconds, outcome)
    return inprocess.measure(
        args.workload, args.seed, args.seconds, outcome,
        lambda: _probe_setup(args.workload, args.seed, outcome))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = {
        metric["name"]: metric["unit"]
        for metric in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    outcome = Outcome()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics = _run(args, work, outcome)
    except Exception as error:  # report, never hang or half-print
        outcome.fail(f"{type(error).__name__}: {error}")
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(catalogue) - set(metrics))
    if missing:
        outcome.fail(f"metrics not measured: {', '.join(missing)}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for note in outcome.notes:
        print(f"note     {note}")
    for name, count in outcome.samples.items():
        print(f"samples  {name:<32} {count}")
    for name, unit in catalogue.items():
        if name in metrics:
            print(f"metric   {name:<32} {metrics[name]:.6g} {unit}")
    print(f"operations attempted={outcome.attempted} failed={outcome.failed}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in catalogue.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
