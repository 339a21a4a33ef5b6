"""The scenario registry: name -> scenario builder.

Mirrors :mod:`repro.protocols.registry`: every scenario *family* (a
parameterized heterogeneity-plus-faults recipe) registers itself under
a stable name, and the harness, the CLI (``repro train --scenario``,
``repro scenarios``) and the conformance matrix resolve families
through this one mapping.  Adding a scenario is: write a builder
``f(params, n_workers, streams) -> Scenario``, call
:func:`register_scenario` with the param keys the builder reads — see
``docs/ARCHITECTURE.md`` for the worked example (mirrored by a test,
like the protocol registry's).

Families flagged ``universal=False`` cannot run under every protocol —
permanent crashes deadlock synchronous protocols by construction — and
are therefore excluded from the cross-protocol conformance matrix;
everything else must pass it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.scenarios.spec import Scenario
    from repro.sim.rng import RngStreams


#: Module that registers the built-in scenario families on import.
_BUILTIN_MODULE = "repro.scenarios.builtin"


@dataclass(frozen=True)
class ScenarioInfo:
    """One registered scenario family.

    Attributes:
        name: Canonical registry name (the CLI / spec spelling).
        builder: ``f(params, n_workers, streams) -> Scenario``.
        params: Every param key the builder reads.  A spec naming any
            other key is rejected (``ScenarioSpec.check``) instead of
            silently running the family's default.
        summary: One-line description for ``--help`` and docs tables.
        paper: Citation for the regime the family models.
        aliases: Alternative names resolving to the same builder.
        universal: Whether every registered protocol can complete under
            this family (the conformance-matrix contract).  Only
            permanently-lethal families should clear this.
    """

    name: str
    builder: Callable[[dict, int, "RngStreams"], "Scenario"]
    params: tuple = ()
    summary: str = ""
    paper: str = ""
    aliases: tuple = ()
    universal: bool = True


_REGISTRY: Dict[str, ScenarioInfo] = {}
_ALIASES: Dict[str, str] = {}
_builtins_loaded = False


def register_scenario(
    name: str,
    builder: Callable[[dict, int, "RngStreams"], "Scenario"],
    params: tuple = (),
    summary: str = "",
    paper: str = "",
    aliases: tuple = (),
    universal: bool = True,
) -> ScenarioInfo:
    """Register (or re-register) a scenario builder under ``name``.

    ``params`` lists every param key ``builder`` reads; specs naming
    any other key fail before the builder runs.
    """
    info = ScenarioInfo(
        name=name,
        builder=builder,
        params=tuple(params),
        summary=summary,
        paper=paper,
        aliases=tuple(aliases),
        universal=universal,
    )
    _REGISTRY[name] = info
    for alias in info.aliases:
        _ALIASES[alias] = name
    return info


def _ensure_builtin_scenarios() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    importlib.import_module(_BUILTIN_MODULE)
    _builtins_loaded = True


def registered_scenarios(
    include_aliases: bool = False, universal_only: bool = False
) -> List[str]:
    """Sorted names of every registered scenario family."""
    _ensure_builtin_scenarios()
    names = {
        name
        for name, info in _REGISTRY.items()
        if info.universal or not universal_only
    }
    if include_aliases:
        names.update(
            alias
            for alias, canonical in _ALIASES.items()
            if _REGISTRY[canonical].universal or not universal_only
        )
    return sorted(names)


def get_scenario(name: str) -> ScenarioInfo:
    """Resolve ``name`` (or an alias) to its :class:`ScenarioInfo`.

    Raises:
        ValueError: naming every registered family, so callers (and CLI
            users) see what *is* available.
    """
    _ensure_builtin_scenarios()
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise ValueError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(registered_scenarios(include_aliases=True))}"
        )
    return _REGISTRY[canonical]


def scenario_table() -> List[dict]:
    """``[{name, aliases, params, summary, paper, universal}, ...]`` rows."""
    _ensure_builtin_scenarios()
    return [
        {
            "name": info.name,
            "aliases": "/".join(info.aliases),
            "params": list(info.params),
            "summary": info.summary,
            "paper": info.paper,
            "universal": info.universal,
        }
        for _, info in sorted(_REGISTRY.items())
    ]
