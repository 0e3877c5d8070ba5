import random

import pytest

from oracles import brute_selector_members
from proxileak.geo import EnuPoint, from_enu, haversine_m
from proxileak.hypergraph import (DuplicateEventError, DuplicateSelectorError,
                                  EventNode, Hypergraph, Selector,
                                  UnknownSelectorError)


def ev(i, ident, kind, payload, t=0.0):
    return EventNode(f"e{i}", ident, kind, payload, t)


def loc(i, ident, x_m, y_m, t, center):
    return ev(i, ident, "location_update",
              from_enu(EnuPoint(x_m, y_m, center)), t)


def test_ingest_base_case(bcn):
    g = Hypergraph()
    g.ingest(ev(0, "a", "like", "p1"))
    assert len(g.nodes) == 1
    assert g.edges == {}


def test_like_event_joins_matching_selector(bcn):
    g = Hypergraph()
    g.define_selector(Selector.likes_page("likes-p1", "p1"))
    g.ingest(ev(0, "a", "like", "p1"))
    g.ingest(ev(1, "b", "like", "p2"))
    assert g.edges["likes-p1"] == frozenset({"e0"})


def test_duplicate_event_rejected_graph_unchanged(bcn):
    g = Hypergraph()
    g.ingest(ev(0, "a", "like", "p1"))
    with pytest.raises(DuplicateEventError):
        g.ingest(ev(0, "a", "like", "p9"))
    assert len(g.nodes) == 1
    assert g.nodes["e0"].payload == "p1"


def test_duplicate_selector_rejected(bcn):
    g = Hypergraph()
    g.define_selector(Selector.identity("id-a", "a"))
    with pytest.raises(DuplicateSelectorError):
        g.define_selector(Selector.identity("id-a", "b"))


def test_radius_selector_members(bcn):
    g = Hypergraph()
    g.ingest(loc(0, "a", 100.0, 0.0, 10.0, bcn))
    g.ingest(loc(1, "b", 450.0, 0.0, 20.0, bcn))
    g.ingest(loc(2, "c", 900.0, 0.0, 30.0, bcn))
    g.ingest(loc(3, "d", 100.0, 0.0, 99.0, bcn))  # outside the window
    g.ingest(ev(4, "a", "like", "p1", t=15.0))    # wrong kind
    members = g.define_selector(
        Selector.within_radius("near", bcn, 500.0, 0.0, 50.0))
    assert members == frozenset({"e0", "e1"})


def test_identity_selector_partitions(bcn):
    g = Hypergraph()
    g.ingest(ev(0, "a", "like", "p1"))
    g.ingest(loc(1, "a", 5.0, 5.0, 1.0, bcn))
    g.ingest(ev(2, "b", "app_interaction", {"op": "swipe"}, t=2.0))
    g.define_selector(Selector.identity("id-a", "a"))
    assert g.edges["id-a"] == frozenset({"e0", "e1"})


def test_pending_empty_edge_not_in_E(bcn):
    g = Hypergraph()
    g.ingest(ev(0, "a", "like", "p1"))
    g.define_selector(Selector.likes_page("unused", "p999"))
    assert "unused" not in g.edges
    # the paper-definition constraint: E holds only non-empty subsets of X
    event_ids = set(g.nodes)
    for members in g.edges.values():
        assert members and members <= event_ids


def test_query_and_or(bcn):
    g = Hypergraph()
    g.define_selector(Selector.within_radius("near", bcn, 500.0, 0.0, 100.0))
    g.define_selector(Selector.likes_page("p1", "p1"))
    g.ingest(loc(0, "a", 10.0, 10.0, 5.0, bcn))
    g.ingest(loc(1, "b", 20.0, -10.0, 6.0, bcn))
    g.ingest(ev(2, "a", "like", "p1", t=7.0))
    g.ingest(ev(3, "c", "like", "p1", t=8.0))
    assert g.query(["near", "p1"], "and") == {"a"}
    assert g.query(["near", "p1"], "or") == {"a", "b", "c"}
    assert g.query(["near"], "or") == g.query(["near"], "and") == {"a", "b"}
    with pytest.raises(UnknownSelectorError):
        g.query(["nope"], "and")


def test_query_and_subset_of_or(bcn, rng):
    g, selectors = random_graph(bcn, rng, n_users=30, n_events=120)
    ids = [s.selector_id for s in selectors]
    for _ in range(20):
        chosen = rng.sample(ids, rng.randrange(1, 4))
        assert g.query(chosen, "and") <= g.query(chosen, "or")


def random_graph(center, rng, n_users, n_events):
    g = Hypergraph()
    selectors = [
        Selector.within_radius("r500", center, 500.0, 0.0, 1e6),
        Selector.within_radius("r2k", from_enu(EnuPoint(800.0, 0.0, center)),
                               2000.0, 100.0, 5000.0),
        Selector.likes_page("p0", "p0"),
        Selector.likes_page("p1", "p1"),
        Selector.identity("id0", "u0"),
    ]
    for s in selectors[:3]:
        g.define_selector(s)
    events = []
    for i in range(n_events):
        ident = f"u{rng.randrange(n_users)}"
        kind = rng.choice(["location_update", "like", "app_interaction"])
        t = rng.uniform(0, 10_000)
        if kind == "location_update":
            payload = from_enu(EnuPoint(rng.uniform(-3000, 3000),
                                        rng.uniform(-3000, 3000), center))
        elif kind == "like":
            payload = f"p{rng.randrange(4)}"
        else:
            payload = {"n": i}
        e = EventNode(f"e{i}", ident, kind, payload, t)
        events.append(e)
        g.ingest(e)
    for s in selectors[3:]:
        g.define_selector(s)
    return g, selectors


def test_full_rebuild_oracle(bcn, rng):
    # Edge membership is exactly predicate satisfaction, no edge is empty,
    # and a query returns the and/or of the identities owning each edge.
    for trial in range(10):
        g, selectors = random_graph(bcn, rng, n_users=20, n_events=150)
        events = list(g.nodes.values())
        owner = {ev.event_id: ev.identity_id for ev in events}
        identities = {}
        for s in selectors:
            expected = brute_selector_members(events, s, haversine_m)
            got = set(g.edges.get(s.selector_id, frozenset()))
            assert got == expected
            identities[s.selector_id] = {owner[eid] for eid in expected}
        assert all(g.edges.values())
        for _ in range(10):
            chosen = rng.sample(sorted(identities), rng.randrange(1, 4))
            combine = rng.choice(["and", "or"])
            want = identities[chosen[0]]
            for sid in chosen[1:]:
                want = (want & identities[sid] if combine == "and"
                        else want | identities[sid])
            assert g.query(chosen, combine) == want


def test_selector_validation(bcn):
    with pytest.raises(ValueError):
        Selector.within_radius("bad", bcn, -5.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        Selector.within_radius("bad", bcn, 5.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        EventNode("e0", "a", "like", 123, 0.0)
    with pytest.raises(ValueError):
        EventNode("e0", "a", "location_update", "not-a-point", 0.0)
    with pytest.raises(ValueError):
        EventNode("e0", "a", "teleport", "x", 0.0)
