"""``/submit`` validation agrees with the protocol builders.

The service validates a payload with :func:`canonical_spec` and only
builds the cluster later, inside a pool worker.  A spec the builder
rejects but ``canonical_spec`` accepts is a cell that burns every
retry before failing; one ``canonical_spec`` rejects but the builder
accepts is an experiment the service refuses for no reason.  Each case
here builds the same spec both ways and checks the two verdicts (and,
on a rejection, the two messages) are the same.
"""

import pytest

from repro.graphs import by_name as graph_by_name
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import by_name as workload_by_name
from repro.protocols.registry import build_cluster, registered_protocols
from repro.service.specio import DEFAULTS, SpecError, canonical_spec

#: (graph, workers) pairs every graph builder accepts: an even ring is
#: bipartite, an odd ring, ring_based, complete are not, a star is.
GRAPHS = [
    ("ring_based", 8),
    ("ring", 8),
    ("ring", 7),
    ("complete", 8),
    ("star", 8),
]

#: Knob edges of the protocols that take knobs.
KNOB_CASES = [
    {"protocol": "ps-ssp", "ps_staleness": 1},
    {"protocol": "ps-ssp", "ps_staleness": 0},
    {"protocol": "ps-bsp", "ps_backup": 7},
    {"protocol": "ps-bsp", "ps_backup": 8},
    {"protocol": "ps-async", "ps_backup": 8},
    {"protocol": "partial-allreduce", "group_size": 2},
    {"protocol": "partial-allreduce", "group_size": 1},
]


def builder_verdict(payload):
    """``None`` if the builder accepts ``payload``, else its message."""
    merged = {**DEFAULTS, **payload}
    spec = ExperimentSpec(
        name="agreement",
        workload=workload_by_name(merged["workload"], merged["preset"]),
        topology=graph_by_name(merged["graph"], merged["workers"]),
        protocol=merged["protocol"],
        max_iter=merged["max_iter"],
        seed=merged["seed"],
        ps_backup=merged["ps_backup"],
        ps_staleness=merged["ps_staleness"],
        group_size=merged["group_size"],
        static_groups=merged["static_groups"],
        momentum_mode=merged["momentum_mode"],
    )
    try:
        build_cluster(spec)
    except ValueError as error:
        return str(error)
    return None


def submit_verdict(payload):
    """``None`` if ``canonical_spec`` accepts ``payload``, else its message."""
    try:
        canonical_spec(payload)
    except SpecError as error:
        return str(error)
    return None


@pytest.mark.parametrize("graph,workers", GRAPHS)
@pytest.mark.parametrize("protocol", registered_protocols())
def test_submit_agrees_with_builder_on_graphs(protocol, graph, workers):
    payload = {"protocol": protocol, "graph": graph, "workers": workers}
    assert submit_verdict(payload) == builder_verdict(payload)


@pytest.mark.parametrize(
    "payload", KNOB_CASES, ids=lambda p: "-".join(map(str, p.values()))
)
def test_submit_agrees_with_builder_on_knobs(payload):
    assert submit_verdict(payload) == builder_verdict(payload)


def test_cases_cover_both_verdicts():
    # The agreement above is vacuous if every case is accepted (or
    # every case rejected): each protocol family must see both.
    verdicts = {}
    for protocol in registered_protocols():
        for graph, workers in GRAPHS:
            payload = {"protocol": protocol, "graph": graph,
                       "workers": workers}
            verdicts.setdefault(protocol, set()).add(
                builder_verdict(payload) is None
            )
    for payload in KNOB_CASES:
        verdicts.setdefault(payload["protocol"], set()).add(
            builder_verdict(payload) is None
        )
    for protocol in ("adpsgd", "momentum-tracking", "ps-ssp", "ps-bsp",
                     "partial-allreduce"):
        assert verdicts[protocol] == {True, False}, protocol
