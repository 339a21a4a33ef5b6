"""The protocol registry: name -> cluster builder.

Every training protocol in the repository registers itself here under a
stable name (``"hop"``, ``"adpsgd"``, ``"partial-allreduce"``, ...).
The harness (:func:`repro.harness.spec.run_spec`), the CLI
(``python -m repro train --protocol``) and the examples all resolve
protocols through this registry instead of hard-coding cluster classes,
so adding a protocol is: subclass
:class:`~repro.protocols.base.ProtocolCluster`, write a builder, call
:func:`register_protocol`.

Builders receive the full :class:`~repro.harness.spec.ExperimentSpec`
and return an un-run cluster; :func:`spec_common_kwargs` converts the
spec's workload/heterogeneity fields into the constructor arguments
every :class:`~repro.protocols.base.ProtocolCluster` accepts.

Registration of the built-in protocols is lazy: the concrete protocol
modules (``repro.core.cluster``, ``repro.baselines.*``,
``repro.protocols.partial_allreduce``, ...) register themselves when
imported, and :func:`_ensure_builtin_protocols` imports them on first
lookup.  This keeps ``import repro.protocols`` free of import cycles.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.graphs.topology import Topology
    from repro.harness.spec import ExperimentSpec
    from repro.protocols.base import ProtocolCluster


#: Modules that register the built-in protocols as an import side effect.
_BUILTIN_MODULES = (
    "repro.core.cluster",
    "repro.baselines.ps",
    "repro.baselines.allreduce",
    "repro.baselines.adpsgd",
    "repro.protocols.partial_allreduce",
    "repro.protocols.momentum_tracking",
)


@dataclass(frozen=True)
class ProtocolInfo:
    """One registered protocol.

    Attributes:
        name: Canonical registry name (the CLI / spec spelling).
        builder: ``f(spec) -> ProtocolCluster`` (un-run).
        summary: One-line description for ``--help`` and docs tables.
        paper: Citation for the protocol's source.
        aliases: Alternative names resolving to the same builder.
        native_faults: The builder wires scenario crash events into the
            cluster itself (workers enact crash/restart natively), so
            :func:`spec_common_kwargs` must NOT also fold the downtime
            into the compute model.  Set this on registration whenever
            the builder passes ``crash_events`` through — otherwise the
            outage is charged twice.
        elastic: The builder wires membership churn plans
            (:class:`~repro.membership.ChurnPlan`) into the cluster, so
            the protocol survives dynamic worker join/leave.
            Non-elastic protocols reject churn scenarios at build time
            (:func:`build_cluster`) and keep static behavior
            bit-identically.
        check: Optional ``f(topology, knobs) -> None`` that raises
            ``ValueError`` for a topology or knob the builder rejects;
            ``knobs`` maps :class:`~repro.harness.spec.ExperimentSpec`
            field names (``ps_backup``, ``ps_staleness``,
            ``group_size``, ...) to values.  It must call the same rule
            the builder enforces, so a caller that validates a spec
            without building it (the experiment service's ``/submit``)
            reports the builder's own message.
    """

    name: str
    builder: Callable[["ExperimentSpec"], "ProtocolCluster"]
    summary: str = ""
    paper: str = ""
    aliases: tuple = ()
    native_faults: bool = False
    elastic: bool = False
    check: Optional[Callable[["Topology", Mapping[str, object]], None]] = None


_REGISTRY: Dict[str, ProtocolInfo] = {}
_ALIASES: Dict[str, str] = {}
_builtins_loaded = False


def register_protocol(
    name: str,
    builder: Callable[["ExperimentSpec"], "ProtocolCluster"],
    summary: str = "",
    paper: str = "",
    aliases: tuple = (),
    native_faults: bool = False,
    elastic: bool = False,
    check: Optional[Callable[["Topology", Mapping[str, object]], None]] = None,
) -> ProtocolInfo:
    """Register (or re-register) a protocol builder under ``name``."""
    info = ProtocolInfo(
        name=name,
        builder=builder,
        summary=summary,
        paper=paper,
        aliases=tuple(aliases),
        native_faults=native_faults,
        elastic=elastic,
        check=check,
    )
    _REGISTRY[name] = info
    for alias in info.aliases:
        _ALIASES[alias] = name
    return info


def _ensure_builtin_protocols() -> None:
    """Import every module that registers a built-in protocol."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Only after every import succeeded: a transient failure above must
    # surface again on the next lookup, not leave a half-filled registry.
    _builtins_loaded = True


def registered_protocols(include_aliases: bool = False) -> List[str]:
    """Sorted names of every registered protocol."""
    _ensure_builtin_protocols()
    names = set(_REGISTRY)
    if include_aliases:
        names.update(_ALIASES)
    return sorted(names)


def get_protocol(name: str) -> ProtocolInfo:
    """Resolve ``name`` (or an alias) to its :class:`ProtocolInfo`.

    Raises:
        ValueError: naming every registered protocol, so callers (and
            CLI users) see what *is* available.
    """
    _ensure_builtin_protocols()
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise ValueError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{', '.join(registered_protocols(include_aliases=True))}"
        )
    return _REGISTRY[canonical]


def protocol_table() -> List[dict]:
    """``[{name, summary, paper, elastic}, ...]`` rows for docs/CLI."""
    _ensure_builtin_protocols()
    return [
        {
            "name": info.name,
            "aliases": "/".join(info.aliases),
            "summary": info.summary,
            "paper": info.paper,
            "elastic": info.elastic,
        }
        for _, info in sorted(_REGISTRY.items())
    ]


def spec_common_kwargs(spec: "ExperimentSpec") -> dict:
    """Constructor kwargs shared by every :class:`ProtocolCluster`.

    Heterogeneity comes from the spec's *scenario* (the legacy
    ``slowdown`` field converts transparently).  Protocols registered
    with ``native_faults=True`` (hop: its workers enact crash/restart
    events themselves) get the pure slowdown model; for every other
    protocol the crash downtime is composed into the compute model as
    an equivalent stall, so fault scenarios run under the whole
    registry.
    """
    workload = spec.workload
    scenario = spec.built_scenario()
    native_faults = get_protocol(spec.protocol).native_faults

    from repro.hetero.compute import ComputeModel

    compute_model = ComputeModel(
        base_time=workload.base_compute_time,
        n_workers=spec.topology.n,
        slowdown=scenario.compute_slowdown(native_faults=native_faults),
    )
    return dict(
        model_factory=workload.model_factory,
        dataset=workload.dataset,
        optimizer=workload.optimizer_factory(),
        batch_size=workload.batch_size,
        compute_model=compute_model,
        max_iter=spec.max_iter,
        seed=spec.seed,
        update_size=workload.update_size,
        trace_channels=spec.trace_channels,
        compression=spec.compression,
    )


def build_cluster(spec: "ExperimentSpec") -> "ProtocolCluster":
    """Build the (un-run) cluster described by ``spec.protocol``.

    Raises:
        ValueError: When the scenario carries a membership churn plan
            and the protocol is not elastic — a barrier or a central
            server has no meaningful partial membership, so the gate
            fails loudly instead of silently running a static cluster.
    """
    info = get_protocol(spec.protocol)
    churn = getattr(spec.built_scenario(), "churn", None)
    if churn is not None and not churn.empty and not info.elastic:
        raise ValueError(
            f"protocol {spec.protocol!r} is not elastic and cannot run "
            "membership churn scenarios; elastic protocols: "
            f"{', '.join(n for n in registered_protocols() if _REGISTRY[n].elastic)}"
        )
    return info.builder(spec)
