#!/usr/bin/env bash
# CI gate: the invariant lint, tier-1 tests (with coverage when
# available), benchmark smoke figures, the REPRO_SANITIZE smoke, and
# the docs check.
# `ci.sh --protocols` additionally smoke-runs the protocol-comparison
# figure (Hop vs partial-allreduce vs momentum-tracking vs baselines).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Recorded line-coverage floor for the tier-1 suite over src/repro
# (measured 94.8% at adoption; the stdlib gate is slightly conservative
# vs coverage.py).  Raise it as subsystems gain tests; never lower it
# to paper over debt.  CI=fast skips the coverage run (plain pytest).
COVERAGE_FLOOR=90

echo "== lint: simulator-invariant static analysis =="
# Determinism, zero-copy aliasing, DES perf and registry contracts
# (repro.analysis).  The checked-in baseline is empty, so any finding
# fails the gate outright.
python -m repro lint

echo "== tier-1: unit/property tests =="
if [[ "${CI:-}" == "fast" ]]; then
    echo "   (CI=fast: coverage gate skipped, floor on record:" \
         "${COVERAGE_FLOOR}%)"
    python -m pytest -x -q
elif python -c "import pytest_cov" 2>/dev/null; then
    echo "   (pytest-cov; floor ${COVERAGE_FLOOR}%)"
    python -m pytest -x -q --cov=repro --cov-report=term-missing:skip-covered \
        --cov-fail-under="${COVERAGE_FLOOR}"
else
    echo "   (pytest-cov not installed; using the stdlib settrace gate," \
         "floor ${COVERAGE_FLOOR}%)"
    python scripts/coverage_gate.py --floor "${COVERAGE_FLOOR}"
fi

echo "== bench smoke: fig21 (instant) + fig16 at smoke preset =="
python -m pytest -x -q benchmarks/test_fig21_spectral_gaps.py
python -m repro figures --preset smoke --only fig16

echo "== scaling smoke: fig24 smallest cells (8/16 workers) =="
python -m repro figures --preset smoke --only fig24

echo "== membership smoke: fig25 churn study + golden-stats drift check =="
# fig25 exercises the whole membership plane (leave/join/rewire across
# the elastic protocols); the conformance matrix then asserts every
# golden cell — the 90 pre-membership recordings AND the churn cells —
# bit-for-bit, so a membership change can never silently shift a
# static-run result.
python -m repro figures --preset smoke --only fig25
python -m pytest -x -q tests/scenarios/test_conformance_matrix.py

echo "== full-grid churn smoke: every protocol survives churn =="
# One pinned churn cell per protocol (families rotate so all three —
# scripted, Poisson, trace-replay — stay exercised): no deadlock, no
# stalled survivor.  The registry's elastic flags are the loop bound,
# so a protocol silently dropping its elastic=True breaks this gate.
python - <<'PY'
from repro.harness.golden import (
    ELASTIC_PROTOCOLS,
    MAX_ITER,
    churn_conformance_spec,
)
from repro.harness.spec import run_spec
from repro.protocols import registered_protocols

assert tuple(registered_protocols()) == tuple(sorted(ELASTIC_PROTOCOLS)), (
    "the full grid must stay elastic"
)
families = ("churn", "churn-poisson", "churn-trace")
for index, protocol in enumerate(ELASTIC_PROTOCOLS):
    family = families[index % len(families)]
    run = run_spec(churn_conformance_spec(protocol, family))
    leavers = {
        event["worker"]
        for event in run.membership_events
        if event["kind"] == "leave"
    }
    stalled = [
        worker
        for worker, completed in enumerate(run.iterations_completed)
        if completed != MAX_ITER and worker not in leavers
    ]
    assert not stalled, f"{protocol}/{family}: stalled {stalled}"
    print(
        f"{protocol:18s} x {family:13s} OK "
        f"(membership_events={len(run.membership_events)}, "
        f"dropped={run.messages_dropped})"
    )
print(f"full grid elastic: all {len(ELASTIC_PROTOCOLS)} protocols")
PY

echo "== compression smoke: fig26 ablation + compressed golden cells =="
# fig26 exercises the compression plane end-to-end (top-k/int8 error
# feedback, payload-accurate pricing on constrained links); the
# conformance run above already replayed the compressed golden cells
# bit-for-bit, so a compressor change can never silently shift a
# dense-run result either.
python -m repro figures --preset smoke --only fig26

echo "== sim-core microbenchmark: generous events/sec floor =="
# ~1.0M events/sec on the reference container after the PR 4 engine
# fast path (625k before it).  The 200k floor is ~5x headroom: it only
# trips on a real regression (an accidental O(n^2), a de-inlined hot
# loop), never on machine noise.
python - <<'PY'
from repro.harness.profiling import sim_core_events_per_sec

rate = sim_core_events_per_sec()
floor = 200_000
assert rate > floor, (
    f"sim-core regressed: {rate:,.0f} events/sec (floor {floor:,})"
)
print(f"sim-core OK: {rate:,.0f} events/sec (floor {floor:,})")
PY

echo "== benchmark self-tests: perfbench wrappers still fire =="
# perfbench wraps simulator entry points by name (Environment.run,
# ProtocolCluster.run, Network.push, HopWorker.run, ...); a rename in
# src/ must fail here rather than silently drop a per-layer metric.
# Not part of tier-1 (pyproject testpaths is tests/ only).
python -m pytest -q perfbench/tests

echo "== sanitizer smoke: REPRO_SANITIZE=1 conformance cell =="
# The runtime half of the aliasing rules: parameter buffers are
# read-only outside set_params' sanctioned window, and one conformance
# cell must still match its golden fingerprint bit-for-bit.
REPRO_SANITIZE=1 python -m pytest -x -q tests/analysis/test_sanitizer.py

echo "== service smoke: serve/submit, golden-verified cache, drain =="
# The fault-tolerant experiment service end-to-end: a real `repro
# serve` subprocess computes the golden-pinned hop/none cell (asserted
# bit-for-bit against golden_stats.json), serves the second identical
# submit as a fingerprint-verified cache hit, and drains on SIGTERM
# with exit 0.  The chaos suite (tests/service/test_chaos.py, part of
# tier-1 above) covers kill -9 resume, cache corruption and worker
# crashes.
python scripts/service_smoke.py

echo "== docs: README / ARCHITECTURE code blocks =="
python scripts/check_docs.py

if [[ "${1:-}" == "--protocols" ]]; then
    echo "== protocols smoke: fig22 (hop vs partial-allreduce vs" \
         "momentum-tracking vs baselines) =="
    python -m repro figures --preset smoke --only fig22
    python -m repro ablations --preset smoke --only partial_groups
fi

if [[ "${1:-}" == "--scenarios" ]]; then
    echo "== scenarios smoke: fig23 (protocol x scenario-family grid) =="
    python -m repro figures --preset smoke --only fig23
fi

echo "CI OK"
