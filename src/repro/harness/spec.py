"""Experiment specification and the single-run entry point.

:class:`ExperimentSpec` bundles everything one training run needs:
workload, topology, protocol (with config), heterogeneity, network and
scale knobs.  ``run_spec`` resolves the protocol through the registry
(:mod:`repro.protocols.registry`), builds the matching cluster and
executes it, so every figure in the harness goes through one code path
and automatically supports every registered protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.compression import CompressionSpec
from repro.core.config import STANDARD, HopConfig
from repro.graphs.topology import Topology
from repro.harness.workloads import Workload
from repro.net.links import LinkModel, uniform_links
from repro.protocols.base import TrainingRun
from repro.protocols.registry import build_cluster
from repro.scenarios.spec import Scenario, ScenarioSpec
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ExperimentSpec:
    """One training run, fully specified.

    Attributes:
        name: Label used in reports.
        workload: Model/data/optimizer bundle.
        topology: Communication graph (ignored by PS / all-reduce,
            which impose their own shape, except for worker count).
        protocol: Any name in
            :func:`repro.protocols.registered_protocols` — ``"hop"``,
            ``"notify_ack"``, ``"ps-bsp"`` (alias ``"ps"``),
            ``"ps-async"``, ``"ps-ssp"``, ``"allreduce"``,
            ``"adpsgd"``, ``"partial-allreduce"``,
            ``"momentum-tracking"``, plus anything registered by
            downstream code.
        config: Hop configuration (hop protocol only).
        scenario: Heterogeneity and faults — any family in
            :func:`repro.scenarios.registered_scenarios` (slowdown
            models, trace replay, crashes, link flaps, message loss,
            churn).  The default ``ScenarioSpec()`` is a homogeneous
            cluster; the paper's Section 7.3 recipes are
            :data:`~repro.scenarios.spec.RANDOM_6X` and
            :func:`~repro.scenarios.spec.deterministic_straggler`.
        max_iter: Iterations per worker.
        seed: Master seed.
        links: Optional network override (machine-aware deployments).
        ps_backup / ps_staleness: PS-specific knobs.
        group_size / static_groups: Partial-all-reduce knobs (group
            width; static-partition ablation).
        momentum_mode: ``"tracking"`` or ``"quasi-global"`` for the
            momentum-tracking gossip protocol.
        trace_channels: Optional tracer-channel allowlist forwarded to
            the cluster's :class:`~repro.sim.trace.Tracer` (``None``
            records every channel).
        compression: Optional update-compression recipe — any name in
            :func:`repro.compression.registered_compressors` plus its
            params (e.g. ``CompressionSpec("topk", {"ratio": 0.01})``).
            ``None`` (or the name ``"none"``) keeps the dense payload
            path bit-identical to pre-compression behavior.
    """

    name: str
    workload: Workload
    topology: Topology
    protocol: str = "hop"
    config: HopConfig = STANDARD
    scenario: ScenarioSpec = ScenarioSpec()
    max_iter: int = 60
    seed: int = 0
    links: Optional[LinkModel] = None
    machines: Optional[tuple] = None
    ps_backup: int = 0
    ps_staleness: int = 0
    group_size: int = 4
    static_groups: bool = False
    momentum_mode: str = "tracking"
    #: Optional tracer-channel allowlist (see repro.sim.trace.Tracer);
    #: perf-focused runs pass repro.protocols.base.LIGHT_TRACE.
    trace_channels: Optional[tuple] = None
    compression: Optional[CompressionSpec] = None

    def with_(self, **changes) -> "ExperimentSpec":
        """A modified copy (dataclasses.replace sugar)."""
        return replace(self, **changes)

    def built_scenario(self) -> Scenario:
        """The built scenario (models + fault plan), cached per spec.

        One run touches this from several places (compute model, crash
        plan, links, message loss); building once avoids re-parsing
        trace files and re-deriving streams.  Sharing the cached model
        instances across repeated runs of the same spec is safe: the
        slowdown-model contract makes factors query-order independent,
        so reuse cannot change any value.
        """
        cached = getattr(self, "_built_scenario", None)
        if cached is None:
            cached = self.scenario.build(
                self.topology.n, RngStreams(self.seed).spawn("slowdown")
            )
            # Frozen dataclass: stash the cache without widening the
            # equality/replace surface.
            object.__setattr__(self, "_built_scenario", cached)
        return cached

    def scenario_links(self) -> Optional[LinkModel]:
        """``links`` with the scenario's link flaps applied (if any)."""
        scenario = self.built_scenario()
        if not scenario.faults.link_flaps:
            return self.links
        return scenario.wrap_links(self.links or uniform_links())

    def scenario_message_loss(self):
        """The scenario's message-loss model, seeded from this spec."""
        return self.built_scenario().message_loss(
            RngStreams(self.seed).spawn("faults")
        )


def run_spec(spec: ExperimentSpec) -> TrainingRun:
    """Resolve ``spec.protocol`` through the registry, build, and run."""
    return build_cluster(spec).run()
