"""Scenario specification: serializable recipe -> built Scenario.

:class:`ScenarioSpec` is to scenarios what
:class:`~repro.harness.spec.ExperimentSpec` is to runs: a frozen,
JSON-serializable description (``family`` + ``params``) that resolves
through the scenario registry into a :class:`Scenario` — the built
bundle of a slowdown model plus a fault plan that the protocol
builders consume.

The paper's two heterogeneity recipes are plain specs of the
``random`` and ``straggler`` families: :data:`RANDOM_6X` and
:func:`deterministic_straggler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hetero.slowdown import SlowdownModel
from repro.net.links import LinkModel
from repro.scenarios.faults import FaultPlan, MessageLoss, StallOverlaySlowdown
from repro.scenarios.registry import ScenarioInfo, get_scenario
from repro.sim.rng import RngStreams


@dataclass
class Scenario:
    """A built scenario: the objects a cluster needs, ready to wire.

    Attributes:
        name: The family it was built from (label in reports).
        slowdown: Pure heterogeneity model (no fault stalls).
        faults: Crash / link / loss plan composing with the slowdown.
        churn: Optional membership churn plan
            (:class:`~repro.membership.ChurnPlan`); only elastic
            protocols accept it (the registry gates at build time).
    """

    name: str
    slowdown: SlowdownModel
    faults: FaultPlan = field(default_factory=FaultPlan)
    churn: Optional[object] = None

    def compute_slowdown(self, native_faults: bool = False) -> SlowdownModel:
        """The slowdown a :class:`~repro.hetero.compute.ComputeModel` gets.

        Protocols with native crash support (``native_faults=True``,
        i.e. Hop) receive the pure slowdown — their workers enact the
        crash events themselves.  Everything else gets the crash
        downtime *added* onto the crash iteration's factor (not
        multiplied: the downtime is absolute dead time, independent of
        whatever slowdown hits that iteration — same semantics as
        hop's native flat timeout).
        """
        if native_faults or not self.faults.crashes:
            return self.slowdown
        return StallOverlaySlowdown(self.slowdown, self.faults.stall_model())

    def wrap_links(self, base: LinkModel) -> LinkModel:
        return self.faults.wrap_links(base)

    def message_loss(self, streams: RngStreams) -> Optional[MessageLoss]:
        return self.faults.message_loss(streams)

    def describe(self) -> str:
        parts = [self.slowdown.describe()]
        if not self.faults.empty:
            parts.append(self.faults.describe())
        if self.churn is not None and not self.churn.empty:
            parts.append(self.churn.describe())
        return " + ".join(parts)


@dataclass(frozen=True)
class ScenarioSpec:
    """Serializable description of one scenario family instance.

    ``family`` names a registered scenario builder; ``params`` are the
    family-specific knobs (all JSON-safe).  ``build`` resolves through
    :mod:`repro.scenarios.registry`.
    """

    family: str = "none"
    params: Dict[str, object] = field(default_factory=dict)

    def check(self) -> ScenarioInfo:
        """Resolve the family and reject param keys it does not read.

        Recurses into a fault family's nested ``slowdown`` recipe, so a
        typo anywhere in the spec fails before anything is built.

        Raises:
            ValueError: unknown family, a malformed nested recipe, or an
                unknown param key (the message names the accepted keys).
        """
        if not isinstance(self.family, str):
            raise ValueError("scenario family must be a string")
        info = get_scenario(self.family)
        unknown = sorted(set(self.params) - set(info.params))
        if unknown:
            raise ValueError(
                f"unknown param(s) {unknown} for scenario {info.name!r}; "
                f"accepted: {', '.join(info.params) or 'none'}"
            )
        nested = self.params.get("slowdown")
        if nested is not None:
            # Nested recipes arrive from /submit as raw JSON: check the
            # shape here so a bad one is a ValueError, not a crash in
            # from_dict, and a typo'd field is not silently dropped.
            if not (isinstance(nested, dict) and "family" in nested):
                raise ValueError(
                    'nested slowdown must be {"family": ..., "params": {...}}'
                )
            extra = sorted(set(nested) - {"family", "params"})
            if extra:
                raise ValueError(f"unknown scenario field(s) {extra}")
            if not isinstance(nested.get("params") or {}, dict):
                raise ValueError("scenario params must be an object")
            ScenarioSpec.from_dict(nested).check()
        return info

    def build(self, n_workers: int, streams: RngStreams) -> Scenario:
        info = self.check()
        return info.builder(dict(self.params), n_workers, streams)

    def describe(self) -> str:
        if not self.params:
            return self.family
        inner = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.params.items())
        )
        return f"{self.family}({inner})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"family": self.family, "params": _jsonify_params(self.params)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        return cls(
            family=payload["family"],
            params=_restore_params(payload.get("params") or {}),
        )


#: The paper's random-slowdown recipe (Section 7.3.1): 6x at p = 1/n.
RANDOM_6X = ScenarioSpec("random", {"factor": 6.0})


def deterministic_straggler(
    worker: int = 0, factor: float = 4.0
) -> ScenarioSpec:
    """The paper's deterministic-slowdown recipe (Section 7.3.5)."""
    return ScenarioSpec("straggler", {"workers": {worker: factor}})


def _jsonify_params(params: Dict[str, object]) -> Dict[str, object]:
    """JSON objects need string keys; tag int-keyed maps for restore."""
    out: Dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, dict):
            out[key] = {str(k): v for k, v in value.items()}
        else:
            out[key] = value
    return out


def _restore_params(params: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, dict):
            try:
                out[key] = {int(k): v for k, v in value.items()}
            except (TypeError, ValueError):
                out[key] = dict(value)
        else:
            out[key] = value
    return out
