"""The service-sweep workload: ``repro serve`` driven by one client.

One client thread on one keep-alive HTTP connection drives the server
in a closed loop: it sends the next request only after the previous
one answered.

A *cycle* starts a server on a fresh state directory and runs

* the cold phase: one sweep of every cell on the empty cache, timed
  from ``POST /submit`` until ``GET /sweep/<id>`` reports it complete,
  then ``GET /result`` of every cell;
* the warm phase: the same cells re-submitted one per sweep, each
  followed by polling and ``GET /result``, until the cycle's time is
  spent.  Every warm cell must be a cache hit.

Every result must carry the reference golden fingerprint.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import cells as cellmod
from perfbench.metrics import Outcome, percentile

_clock = time.perf_counter

POOL_WORKERS = 2
#: Server lifetimes per untraced run; each gives one set-up sample and
#: one cold sweep.
CYCLES = 5
#: How long to wait for a server to come up or to go down, and for a
#: sweep to complete: a wedged service fails the run instead of
#: hanging it.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
SWEEP_TIMEOUT_S = 60.0


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line, or ``""`` if none comes in time."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


class Client:
    """JSON over one persistent HTTP/1.1 connection.

    ``repro.service.client`` opens a connection per request; this
    workload keeps one open, as a long-lived client would.
    """

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _wait_ready(port: int, deadline: float) -> None:
    while True:
        client = Client(port)
        try:
            status, _ = client.request("GET", "/readyz")
            if status == 200:
                return
        except (OSError, http.client.HTTPException):
            pass
        finally:
            client.close()
        if _clock() > deadline:
            raise TimeoutError("service did not become ready")
        time.sleep(0.005)


class Cycle:
    """Client-side timings and results of one server lifetime."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.cold_s = 0.0
        self.cold_entries: Dict[str, dict] = {}
        self.warm_latencies: List[float] = []
        self.submit_s: List[float] = []
        self.result_s: List[float] = []
        self.polls: List[int] = []
        self.stats: dict = {}
        self.rss_mb = 0.0


def _sweep(client: Client, specs: List[dict], outcome: Outcome,
           cycle: Cycle, poll_sleep: float) -> Optional[dict]:
    """Submit one sweep and poll it to completion; its final snapshot."""
    start = _clock()
    status, ticket = client.request("POST", "/submit", {"specs": specs})
    cycle.submit_s.append(_clock() - start)
    if status != 202:
        outcome.fail(f"/submit answered {status}: {ticket}")
        return None
    polls = 0
    deadline = start + SWEEP_TIMEOUT_S
    while True:
        status, snapshot = client.request(
            "GET", f"/sweep/{ticket['sweep_id']}")
        polls += 1
        if status != 200:
            outcome.fail(f"/sweep answered {status}: {snapshot}")
            return None
        if snapshot["complete"]:
            cycle.polls.append(polls)
            if snapshot["failed"]:
                outcome.fail(f"{len(snapshot['failed'])} cell(s) failed "
                             f"in sweep {ticket['sweep_id']}")
            return snapshot
        if _clock() > deadline:
            outcome.fail(f"sweep {ticket['sweep_id']} incomplete after "
                         f"{SWEEP_TIMEOUT_S:.0f} s")
            return None
        time.sleep(poll_sleep)


def _result(client: Client, digest: str, label: str, seed: int,
            reference: dict, outcome: Outcome, cycle: Cycle
            ) -> Optional[dict]:
    start = _clock()
    status, entry = client.request("GET", f"/result/{digest}")
    cycle.result_s.append(_clock() - start)
    if status != 200:
        outcome.fail(f"{label}: /result answered {status}")
        return None
    problems = cellmod.check_service(reference, seed, label, entry)
    if problems:
        outcome.fail(*problems)
    return entry


def run_cycle(port: int, seed: int, budget_s: float, outcome: Outcome,
              reference: dict, cycle: Cycle, recorder=None) -> None:
    """Cold sweep then warm re-submissions against a ready server.

    With a ``recorder``, spans are stamped ``cold`` during the cold
    sweep and with the cell's label during its warm round trip.
    """
    from repro.service.specio import spec_hash

    payloads = cellmod.service_payloads(seed)
    digests = {label: spec_hash(payload) for label, payload in payloads}
    client = Client(port)
    try:
        started = _clock()
        if recorder is not None:
            recorder.cell = "cold"
        outcome.attempted += len(payloads)
        start = _clock()
        snapshot = _sweep(client, [p for _, p in payloads], outcome, cycle,
                          poll_sleep=0.01)
        cycle.cold_s = _clock() - start
        if snapshot is None:
            return
        for label, _ in payloads:
            entry = _result(client, digests[label], label, seed, reference,
                            outcome, cycle)
            if entry is not None:
                cycle.cold_entries[label] = entry

        # Warm phase: at least one pass over every cell.
        index = 0
        while index < len(payloads) or _clock() - started < budget_s:
            label, payload = payloads[index % len(payloads)]
            index += 1
            outcome.attempted += 1
            if recorder is not None:
                recorder.cell = label
            start = _clock()
            snapshot = _sweep(client, [payload], outcome, cycle,
                              poll_sleep=0.001)
            if snapshot is None:
                continue
            if not snapshot["cells"][digests[label]]["cache_hit"]:
                outcome.fail(f"{label}: warm re-submission was not a "
                             "cache hit")
            entry = _result(client, digests[label], label, seed, reference,
                            outcome, cycle)
            if entry is not None:
                cycle.warm_latencies.append(_clock() - start)
        status, cycle.stats = client.request("GET", "/stats")
        if status != 200:
            outcome.fail(f"/stats answered {status}")
        for counter in ("run_failures", "timeouts", "worker_crashes",
                        "shed"):
            if cycle.stats.get(counter):
                outcome.fail(f"service counted {cycle.stats[counter]} "
                             f"{counter}")
    finally:
        client.close()


# ----------------------------------------------------------------------
# The untraced run: ``repro serve`` as its own process
# ----------------------------------------------------------------------
def _peak_rss_mb(pid: int) -> float:
    """VmHWM of the server plus its pool workers, in MB."""
    def read(path: str) -> str:
        # A thread or process can exit between listing and reading.
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    pids = [pid]
    for task in Path(f"/proc/{pid}/task").glob("*"):
        pids.extend(int(child) for child in read(f"{task}/children").split())
    total_kb = 0
    for each in pids:
        for line in read(f"/proc/{each}/status").splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _start_server(root: Path, state_dir: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    start = _clock()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir",
         str(state_dir), "--port", "0", "--pool-workers", str(POOL_WORKERS)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = read_line(proc, START_TIMEOUT_S)
        if "listening on" not in line:
            raise RuntimeError(f"unexpected server banner {line!r}")
        port = int(line.strip().rsplit(":", 1)[1])
        _wait_ready(port, start + START_TIMEOUT_S)
    except BaseException:
        _stop_server(proc)
        raise
    return proc, port, _clock() - start


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def measure(root: Path, work: Path, seed: int, seconds: float,
            outcome: Outcome) -> Dict[str, float]:
    """End-to-end metrics over :data:`CYCLES` fresh servers."""
    reference = cellmod.load_reference()
    runs: List[Cycle] = []
    for index in range(CYCLES):
        cycle = Cycle()
        proc, port, cycle.setup_s = _start_server(
            root, work / f"state-{index}")
        try:
            run_cycle(port, seed, seconds / CYCLES, outcome, reference, cycle)
            cycle.rss_mb = _peak_rss_mb(proc.pid)
        finally:
            _stop_server(proc)
        runs.append(cycle)
    latencies = [x for cycle in runs for x in cycle.warm_latencies]
    outcome.samples["cycles"] = len(runs)
    outcome.samples["warm_cells_timed"] = len(latencies)
    cold_rates, iter_rates = [], []
    for cycle in runs:
        if cycle.cold_s <= 0 or not cycle.cold_entries:
            continue
        executed = sum(
            sum(e["result"]["iterations_completed"])
            - sum(e["result"]["iterations_skipped"])
            for e in cycle.cold_entries.values())
        cold_rates.append(len(cycle.cold_entries) / cycle.cold_s)
        iter_rates.append(executed / cycle.cold_s)
    entries = runs[-1].cold_entries
    if not latencies or not cold_rates or not entries:
        return {}
    return {
        "setup_s": statistics.median(c.setup_s for c in runs),
        "iters_per_s": statistics.median(iter_rates),
        "cold_cells_per_s": statistics.median(cold_rates),
        "warm_p50_ms": percentile(latencies, 50) * 1e3,
        "warm_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
        "sim_iter_ms": 1e3 * statistics.fmean(
            cellmod.mean_iteration_s(e["result"]["worker_stats"])
            for e in entries.values()),
        "test_loss": statistics.median(
            e["result"]["final_loss"] for e in entries.values()),
    }


# ----------------------------------------------------------------------
# The traced run: the same service in this process, cells inline
# ----------------------------------------------------------------------
def _inline_cycle(work: Path, name: str, seed: int, budget_s: float,
                  outcome: Outcome, reference: dict, recorder=None) -> Cycle:
    """One cycle against a service running in this process.

    The scheduler runs cells inline on a single dispatcher thread, so
    the cache, the journal and the simulator layers beneath the
    service all run where the wrappers can see them.
    """
    from repro.service.server import ExperimentService, make_server

    cycle = Cycle()
    service = ExperimentService(work / name, pool_workers=1, inline=True)
    httpd = make_server(service, port=0)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
        name="perfbench-http")
    thread.start()
    try:
        run_cycle(httpd.server_address[1], seed, budget_s, outcome,
                  reference, cycle, recorder)
    finally:
        service.shutdown(timeout=STOP_TIMEOUT_S)
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=STOP_TIMEOUT_S)
    return cycle


def trace(work: Path, seed: int, seconds: float, outcome: Outcome,
          recorder, span_path) -> Dict[str, float]:
    """Per-layer metrics of one traced in-process cycle.

    An untraced in-process cycle (cold sweep, one warm pass) runs first;
    the ratio of the two cold sweeps is the tracing overhead.
    """
    from perfbench import instrument
    from perfbench.metrics import layer_metrics

    reference = cellmod.load_reference()
    untraced = _inline_cycle(work, "state-untraced", seed, 0.0, outcome,
                             reference)
    patches = instrument.install(recorder)
    outcome.notes.extend(f"not wrapped: {m}" for m in patches.missing)
    try:
        start = _clock()
        cycle = _inline_cycle(work, "state-traced", seed, seconds, outcome,
                              reference, recorder)
        elapsed = _clock() - start
    finally:
        patches.undo()
    outcome.samples["warm_cells_timed"] = len(cycle.warm_latencies)
    outcome.samples["spans_written"] = recorder.write_spans(span_path)
    stats = cycle.stats or {}
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    computed = stats.get("runs_computed", 0)
    attempts = computed + stats.get("retries", 0) + stats.get(
        "run_failures", 0)
    extra = {
        "service.submit_ms": statistics.fmean(cycle.submit_s) * 1e3,
        "service.poll_calls": statistics.fmean(cycle.polls),
        "service.result_ms": statistics.fmean(cycle.result_s) * 1e3,
        "service.cache_hit_ratio": cache.get("hits", 0) / lookups
        if lookups else 0.0,
        "service.useful_ratio": computed / attempts if attempts else 0.0,
    }
    overhead = cycle.cold_s / untraced.cold_s if untraced.cold_s else 0.0
    return layer_metrics(
        recorder, [e["result"] for e in cycle.cold_entries.values()], 1,
        overhead=overhead, repetition_s=elapsed, extra=extra)
