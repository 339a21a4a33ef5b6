"""Parallel experiment runner: fan independent series across processes.

Every figure in the harness runs several *independent* training series
(fig12 alone runs six full cluster simulations back-to-back).  Each
:class:`~repro.harness.spec.ExperimentSpec` carries its own master
seed, and :func:`~repro.harness.spec.run_spec` derives every RNG stream
from it, so a series computes the identical
:class:`~repro.core.cluster.TrainingRun` whether it executes in this
process or a worker process.  :func:`run_specs` exploits that: it fans
the series of one figure across a ``ProcessPoolExecutor`` and returns
results keyed and ordered exactly like the sequential path.

Worker count resolution, most specific wins:

1. the ``jobs`` argument to :func:`run_specs` (``python -m repro
   figures --jobs N`` routes here via :func:`set_default_jobs`),
2. the ``REPRO_JOBS`` environment variable,
3. the machine's usable CPU count.

``--jobs 1`` / ``REPRO_JOBS=1`` force the in-process sequential path.
On machines (or sandboxes) where worker processes cannot be spawned the
runner degrades to sequential execution with a warning instead of
failing the figure.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Dict, Mapping, Optional

from repro.core.cluster import TrainingRun
from repro.harness.spec import ExperimentSpec, run_spec

_configured_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (CLI ``--jobs`` knob).

    ``None`` or ``0`` restores auto-detection (``REPRO_JOBS`` env var,
    then CPU count).
    """
    global _configured_jobs
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    _configured_jobs = jobs or None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_jobs() -> int:
    """The worker count used when ``run_specs`` gets ``jobs=None``."""
    if _configured_jobs is not None:
        return _configured_jobs
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as error:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from error
        if value < 0:
            raise ValueError(f"REPRO_JOBS must be >= 0, got {value}")
        if value > 0:
            return value
        # 0 means auto-detect, mirroring --jobs 0.
    return _usable_cpus()


def resolve_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Clamp the requested worker count to the available task count."""
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    return max(1, min(jobs, n_tasks))


def _run_sequentially(
    specs: Mapping[str, ExperimentSpec]
) -> Dict[str, TrainingRun]:
    return {key: run_spec(spec) for key, spec in specs.items()}


def run_specs(
    specs: Mapping[str, ExperimentSpec], jobs: Optional[int] = None
) -> Dict[str, TrainingRun]:
    """Run every spec and return ``{key: TrainingRun}`` in input order.

    With more than one worker the series run in a process pool; results
    are bitwise identical to the sequential path because each spec seeds
    all of its randomness (see module docstring).
    """
    items = list(specs.items())
    n_workers = resolve_jobs(jobs, len(items))
    if n_workers <= 1 or len(items) <= 1:
        return _run_sequentially(specs)
    try:
        # Probe before spawning anything: a spec that cannot cross the
        # process boundary (e.g. a closure-based factory) must not cost
        # a pool teardown, and exceptions raised later by run_spec
        # itself must propagate rather than trigger a silent (and
        # expensive) sequential re-run.
        pickle.dumps([spec for _, spec in items])
    except Exception as error:
        warnings.warn(
            f"specs are not picklable ({error!r}); running "
            f"{len(items)} series sequentially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_sequentially(specs)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers, mp_context=context
        ) as pool:
            futures = [(key, pool.submit(run_spec, spec)) for key, spec in items]
            return {key: future.result() for key, future in futures}
    except (OSError, PicklingError, BrokenProcessPool) as error:
        # The sandbox cannot spawn worker processes (or a result could
        # not cross back); the sequential path still produces correct
        # results.  Exceptions raised by run_spec in a worker are
        # re-raised as-is by future.result() and propagate above.
        warnings.warn(
            f"parallel runner unavailable ({error!r}); running "
            f"{len(items)} series sequentially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_sequentially(specs)
