"""Self-tests of the benchmark's wrappers and span accounting.

    python3 -m pytest perfbench/tests -q

The cells run here are the benchmark's own, shrunk (fewer workers and
iterations) so the suite takes seconds; which wrappers fire does not
depend on the size.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import cells, instrument  # noqa: E402
from perfbench.spans import Recorder, wrap_call, wrap_generator  # noqa: E402

#: Spans each in-process workload must enter (the layer table).
COMMON_SPANS = {
    "ml.grad", "ml.dense", "ml.batch", "ml.eval", "ml.model_init",
    "optim.step", "core.queue", "core.reduce", "core.gap", "core.worker",
    "net.push", "sim.run", "hetero.duration", "trace.log", "graphs.build",
    "graphs.validate", "harness.build_cluster", "protocols.run",
}
EXPECTED_SPANS = {
    "cnn-hetero16": COMMON_SPANS | {"ml.conv_fwd", "ml.conv_bwd",
                                    "ml.pool_fwd", "ml.pool_bwd"},
    "svm-hop1024": COMMON_SPANS,
}
SERVICE_SPANS = {"service.cache_get", "service.cache_put",
                 "service.journal", "compression.encode", "core.worker"}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(cells, "CNN_ITERS", 3)
    monkeypatch.setattr(cells, "SVM_WORKERS", 32)
    monkeypatch.setattr(cells, "SVM_ITERS", 6)
    monkeypatch.setattr(cells, "SERVICE_WORKERS", 4)
    monkeypatch.setattr(cells, "SERVICE_ITERS", 6)


def _run_cells(workload, seed=1):
    from repro.protocols import registry

    stats, runs = {}, []
    for label, spec in cells.IN_PROCESS[workload](seed):
        run = registry.build_cluster(spec).run()
        stats[label] = cells.run_stats(run)
        runs.append(run)
    return stats, runs


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
def test_self_time_excludes_children():
    recorder = Recorder()
    inner = wrap_call(recorder, "inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    wrap_call(recorder, "outer", outer_body)()
    self_s = recorder.self_seconds()
    incl_s = recorder.inclusive_seconds()
    assert incl_s["outer"] >= incl_s["inner"] >= 0.02
    assert self_s["outer"] == pytest.approx(
        incl_s["outer"] - incl_s["inner"], abs=1e-9)
    spans = {name: (span, parent) for _, (span, parent, name, *_rest)
             in enumerate(recorder._states[0].spans)}
    assert spans["inner"][1] == spans["outer"][0]


def test_generator_wrapper_is_transparent():
    def counter(limit):
        total = 0
        for _ in range(limit):
            try:
                total += yield total
            except KeyError:
                total = -100
        return total

    recorder = Recorder()
    wrapped = wrap_generator(recorder, "gen", counter)(3)
    assert wrapped.__name__ == "counter"
    assert next(wrapped) == 0
    assert wrapped.send(5) == 5
    assert wrapped.throw(KeyError()) == -100
    with pytest.raises(StopIteration) as stop:
        wrapped.send(1)
    assert stop.value.value == -99
    assert recorder.calls()["gen"] == 4


def test_install_then_undo_restores_every_attribute():
    from repro.core import worker
    from repro.net.network import Network

    push, reduce_ = Network.__dict__["push"], worker.standard_reduce
    patches = instrument.install(Recorder())
    assert not patches.missing
    assert Network.__dict__["push"] is not push
    assert worker.standard_reduce is not reduce_
    patches.undo()
    assert Network.__dict__["push"] is push
    assert worker.standard_reduce is reduce_


# ----------------------------------------------------------------------
# Wrappers fire where the layer table says, and change nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_wrappers_fire_and_keep_statistics_bitwise(workload, small):
    untraced, _ = _run_cells(workload)
    recorder = Recorder()
    patches = instrument.install(recorder)
    try:
        traced, runs = _run_cells(workload)
    finally:
        patches.undo()
    assert traced == untraced

    calls = recorder.calls()
    missing = sorted(name for name in EXPECTED_SPANS[workload]
                     if not calls.get(name))
    assert not missing, f"wrappers never fired: {missing}"
    counts = recorder.counts()
    assert counts["sim.events"] > 0
    assert counts["ml.send_param_bytes"] > 0
    # One gradient, one optimizer step and one reduce per executed
    # iteration of every worker (a skip jump reduces once more): the
    # hoisted locals hit the wrappers.
    executed = sum(sum(s["iterations_completed"]) - sum(s["iterations_skipped"])
                   for s in traced.values())
    jumps = sum(w.get("n_jumps", 0) for run in runs for w in run.worker_stats)
    assert calls["ml.grad"] == executed
    assert calls["optim.step"] == executed
    assert calls["core.reduce"] == executed + jumps
    assert calls["net.push"] == sum(run.messages_sent for run in runs)


def test_svm_workload_exercises_backup_and_skipping(small):
    stats, runs = _run_cells("svm-hop1024")
    (run,) = runs
    assert sum(run.iterations_skipped) > 0
    assert any(w.get("n_extra_updates") for w in run.worker_stats)


def test_service_wrappers_fire(small, tmp_path):
    from repro.service.server import ExperimentService

    recorder = Recorder()
    patches = instrument.install(recorder)
    try:
        service = ExperimentService(tmp_path / "state", pool_workers=1,
                                    inline=True)
        payloads = [p for label, p in cells.service_payloads(2)
                    if label in ("hop/topk", "hop/churn-poisson")]
        for _ in range(2):  # cold, then served from the cache
            ticket = service.submit({"specs": payloads})
            sweep = service.scheduler.sweep(ticket["sweep_id"])
            assert sweep.finished.wait(60)
            assert all(c.status == "done" for c in sweep.cells.values())
        entries = [service.result(h) for h in ticket["cells"]]
        service.shutdown(timeout=30)
    finally:
        patches.undo()
    calls = recorder.calls()
    missing = sorted(name for name in SERVICE_SPANS if not calls.get(name))
    assert not missing, f"wrappers never fired: {missing}"
    assert any(e["result"]["membership_events"] for e in entries)


def test_service_cells_are_all_accepted(small):
    """Every service cell runs: none relies on a combination that passes
    ``/submit`` and then fails inside the pool."""
    from repro.harness.spec import run_spec
    from repro.service.specio import spec_from_dict

    payloads = cells.service_payloads(0)
    assert len({label for label, _ in payloads}) == len(payloads)
    for label, payload in payloads:
        spec, _, _ = spec_from_dict(payload)
        run = run_spec(spec)
        assert sum(run.iterations_completed) > 0, label


# ----------------------------------------------------------------------
# The command refuses to run without the simulator
# ----------------------------------------------------------------------
def test_run_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svm-hop1024",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
