"""Property tests for the service's canonical spec form + cache key.

The spec hash is the result cache's address, so two invariants carry
the whole correctness story:

* requests describing the *same* experiment hash identically — under
  JSON key reordering, default-field elision, alias spellings, and
  label fields (``name``/``chaos``), and
* requests describing *different* experiments never collide on the
  canonical form.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.specio import (
    DEFAULTS,
    SpecError,
    canonical_json,
    canonical_spec,
    spec_from_dict,
    spec_hash,
)

# ----------------------------------------------------------------------
# Strategies: valid spec payloads
# ----------------------------------------------------------------------
spec_payloads = st.fixed_dictionaries(
    {},
    optional={
        "workload": st.sampled_from(["svm", "cnn"]),
        "preset": st.sampled_from(["smoke", "bench"]),
        # Every sampled graph accepts every sampled worker count
        # (ring_based needs even n >= 4; double_ring needs n % 4 == 0).
        "graph": st.sampled_from(
            ["ring_based", "double_ring", "ring", "complete"]
        ),
        "workers": st.sampled_from([8, 12]),
        "protocol": st.sampled_from(
            ["hop", "allreduce", "adpsgd", "ps", "ps-async"]
        ),
        "max_iter": st.integers(min_value=1, max_value=50),
        "seed": st.integers(min_value=0, max_value=10_000),
        "group_size": st.integers(min_value=2, max_value=6),
        "static_groups": st.booleans(),
        "momentum_mode": st.sampled_from(["tracking", "quasi-global"]),
        "name": st.text(min_size=1, max_size=12),
    },
).filter(
    # AD-PSGD gossips over a bipartite graph; of the sampled graphs
    # only the even ring is one, and the default graph (ring_based) is
    # not, so other pairings are invalid specs (rejected below).
    lambda payload: payload.get("protocol") != "adpsgd"
    or payload.get("graph") == "ring"
)


def shuffled(payload: dict, rnd) -> dict:
    items = list(payload.items())
    rnd.shuffle(items)
    return dict(items)


# ----------------------------------------------------------------------
# Invariance: same experiment -> same hash
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads, data=st.data())
def test_hash_invariant_under_key_reordering(payload, data):
    reordered = dict(
        data.draw(st.permutations(list(payload.items())), label="order")
    )
    assert spec_hash(reordered) == spec_hash(payload)


@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads, data=st.data())
def test_hash_invariant_under_default_field_elision(payload, data):
    # Spelling out any subset of defaulted fields must not move the
    # hash: {"protocol": "hop"} and {} name the same experiment.
    non_label = {k: v for k, v in DEFAULTS.items()}
    explicit = dict(payload)
    for field in data.draw(
        st.sets(st.sampled_from(sorted(non_label))), label="spelled"
    ):
        explicit.setdefault(field, non_label[field])
    assert spec_hash(explicit) == spec_hash(payload)


@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads, label=st.text(max_size=16))
def test_hash_ignores_name_and_chaos_labels(payload, label):
    relabeled = {**payload, "name": label, "chaos": {"fail_attempts": 2}}
    assert spec_hash(relabeled) == spec_hash(payload)


@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads)
def test_canonical_form_is_a_fixpoint(payload):
    canonical = canonical_spec(payload)
    assert canonical_spec(canonical) == canonical
    # ...and round-trips through its own JSON serialization.
    assert canonical_spec(json.loads(canonical_json(canonical))) == canonical


# ----------------------------------------------------------------------
# Injectivity: different experiments never collide
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(first=spec_payloads, second=spec_payloads)
def test_distinct_canonical_specs_never_collide(first, second):
    c1, c2 = canonical_spec(first), canonical_spec(second)
    if c1 != c2:
        assert spec_hash(first) != spec_hash(second)
    else:
        assert spec_hash(first) == spec_hash(second)


def test_each_field_change_moves_the_hash():
    base = {"workers": 4, "max_iter": 5, "seed": 1}
    baseline = spec_hash(base)
    variants = [
        {**base, "workers": 6},
        {**base, "max_iter": 6},
        {**base, "seed": 2},
        {**base, "protocol": "allreduce"},
        {**base, "workload": "cnn"},
        {**base, "graph": "complete"},
        {**base, "scenario": {"family": "straggler"}},
        {**base, "compression": {"scheme": "topk",
                                 "params": {"ratio": 0.5}}},
    ]
    hashes = [spec_hash(v) for v in variants]
    assert baseline not in hashes
    assert len(set(hashes)) == len(hashes)


# ----------------------------------------------------------------------
# Aliases and normalization
# ----------------------------------------------------------------------
def test_protocol_aliases_share_a_hash():
    assert spec_hash({"protocol": "ps"}) == spec_hash({"protocol": "ps-bsp"})
    assert spec_hash({"protocol": "prague"}) == spec_hash(
        {"protocol": "partial-allreduce"}
    )


def test_graph_alias_spellings_share_a_hash():
    assert spec_hash({"graph": "ring-based"}) == spec_hash(
        {"graph": "ring_based"}
    )


def test_none_scenario_and_compression_elide_to_defaults():
    assert spec_hash({"scenario": {"family": "none"}}) == spec_hash({})
    assert spec_hash({"compression": {"scheme": "none"}}) == spec_hash({})


# ----------------------------------------------------------------------
# Validation errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"bogus": 1}, "unknown spec field"),
        ({"workers": "four"}, "workers must be an integer"),
        ({"workers": True}, "workers must be an integer"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"preset": "huge"}, "unknown preset"),
        ({"workload": "resnet"}, "unknown workload"),
        ({"momentum_mode": "both"}, "momentum_mode"),
        ({"static_groups": "yes"}, "static_groups must be a boolean"),
        ({"scenario": {"params": {}}}, "scenario must be"),
        ({"scenario": {"family": "none", "extra": 1}},
         "unknown scenario field"),
        # A typo'd knob must not become a second cache address for the
        # family default.
        ({"scenario": {"family": "random", "params": {"probabilty": 0.5}}},
         r"unknown param\(s\) \['probabilty'\] for scenario 'random'; "
         "accepted: factor, probability"),
        ({"scenario": {"family": "crash-restart", "params": {
            "slowdown": {"family": "random", "params": {"facter": 3}}}}},
         r"\['facter'\]"),
        # Malformed nested recipes are 400s, not handler crashes.
        ({"scenario": {"family": "crash-restart", "params": {
            "slowdown": {"family": "random", "params": [1]}}}},
         "scenario params must be an object"),
        ({"scenario": {"family": "crash-restart", "params": {
            "slowdown": {"family": {}}}}},
         "scenario family must be a string"),
        ({"scenario": {"family": {}}}, "scenario family must be a string"),
        ({"scenario": {"family": "crash-restart", "params": {
            "slowdown": {"family": "random", "param": {"factor": 3}}}}},
         r"unknown scenario field\(s\) \['param'\]"),
        ({"compression": {"params": {}}}, "compression must be"),
        ([], "must be a JSON object"),
        ({"protocol": "adpsgd", "workers": 16}, "is not bipartite"),
        ({"protocol": "momentum-tracking", "workers": 16},
         "is not bipartite"),
        ({"protocol": "ps-ssp", "workers": 16}, "ssp needs staleness >= 1"),
        ({"protocol": "ps", "ps_backup": 8}, "n_backup must be in"),
        ({"protocol": "partial-allreduce", "group_size": 1},
         "group_size must be >= 2"),
    ],
)
def test_invalid_payloads_raise_spec_error(payload, fragment):
    with pytest.raises(SpecError, match=fragment):
        canonical_spec(payload)


def test_unknown_scenario_param_is_rejected_before_any_build(monkeypatch):
    import dataclasses

    from repro.scenarios.registry import _REGISTRY, get_scenario

    def fail(*args):
        raise AssertionError("validation must not build the scenario")

    info = dataclasses.replace(get_scenario("random"), builder=fail)
    monkeypatch.setitem(_REGISTRY, "random", info)
    with pytest.raises(SpecError, match="probabilty"):
        canonical_spec(
            {"scenario": {"family": "random", "params": {"probabilty": 1}}}
        )


@pytest.mark.parametrize(
    "payload,digest",
    [
        ({}, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
        (
            {"scenario": {"family": "random", "params": {
                "factor": 3.0, "probability": 0.25}}},
            "b29d67ee759b48fa40be7b307fc01118497408501ca10381127b69d7a68d4206",
        ),
        (
            {"scenario": {"family": "straggler", "params": {
                "workers": {"0": 4.0, "3": 2.0}}}},
            "02dbbe597cfd17db2c13f0bcc04f71a6823c1e0e944471f24a12865c3bc14b59",
        ),
    ],
)
def test_cache_addresses_are_pinned(payload, digest):
    """Existing cache entries stay reachable: the hash of a valid spec
    does not move when the scenario plane changes shape."""
    assert spec_hash(payload) == digest


def test_unknown_registry_names_surface_registry_message():
    with pytest.raises(SpecError):
        canonical_spec({"protocol": "nope"})
    with pytest.raises(SpecError):
        canonical_spec({"scenario": {"family": "nope"}})
    with pytest.raises(SpecError):
        canonical_spec({"compression": {"scheme": "nope"}})
    with pytest.raises(SpecError):
        canonical_spec({"graph": "nope"})


# ----------------------------------------------------------------------
# spec_from_dict
# ----------------------------------------------------------------------
def test_spec_from_dict_builds_runnable_spec():
    spec, canonical, digest = spec_from_dict(
        {"workers": 4, "max_iter": 5, "seed": 1, "name": "mine"}
    )
    assert spec.name == "mine"
    assert spec.topology.n == 4
    assert spec.max_iter == 5
    assert digest == spec_hash({"workers": 4, "max_iter": 5, "seed": 1})
    assert canonical == {"max_iter": 5, "seed": 1, "workers": 4}


def test_spec_from_dict_default_name_embeds_hash():
    spec, _, digest = spec_from_dict({"workers": 4})
    assert spec.name == f"service/{digest[:12]}"
