from datetime import date, timedelta
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_forward, brute_identify, brute_matching,
                     brute_reverse)
from proxileak.service import NearbyEntry, ProximityService
from proxileak.socialgraph import (GraphQuery, IdentificationResult,
                                   SocialGraph, candidate_birth_years,
                                   forward_search, identify, reverse_search)
from proxileak.world import (BIRTH_RANGE, FUZZ_WINDOW_DAYS, DisclosurePolicy,
                             SimUser, generate_population,
                             stationary_trajectory)
from proxileak.geo import GeoPoint
from proxileak.report import AttackTrace, write_csv


def user(social, name, year, likes, uid=None):
    traj = stationary_trajectory(GeoPoint(41.4, 2.15))
    return SimUser(uid or social, name, date(year, 6, 1), traj, set(likes), social)


HANDCRAFTED = [
    user("s0", "John", 1979, {"p1", "p2"}),
    user("s1", "John", 1979, {"p1"}),
    user("s2", "john", 1984, {"p1", "p3"}),
    user("s3", "Mary", 1979, {"p2"}),
    user("s4", "Mary", 1990, set()),
    user("s5", "Ana", 1979, {"p1", "p2", "p3"}),
    user("s6", "John", 1990, {"p4"}),
    user("s7", "Ana", 1984, {"p2", "p4"}),
    user("s8", "Luc", 1979, {"p5"}),
    user("s9", "Luc", 1984, {"p1", "p5"}),
]
GRAPH = SocialGraph(HANDCRAFTED)


def test_forward_match_all():
    assert forward_search(GRAPH, GraphQuery()) == {u.social_id
                                                   for u in HANDCRAFTED}


def test_forward_handcrafted_equals_brute_force():
    q = GraphQuery(name="John", liked_pages=frozenset({"p1"}))
    got = forward_search(GRAPH, q)
    assert got == brute_forward(HANDCRAFTED, "John", None, {"p1"})
    assert got == {"s0", "s1", "s2"}  # case-insensitive name match


def test_forward_nobody_likes_page():
    assert forward_search(GRAPH, GraphQuery(liked_pages=frozenset({"zzz"}))) == set()


def test_reverse_vacuous_and_singleton():
    assert reverse_search(GRAPH, GraphQuery(name="Zoe")) == set()
    got = reverse_search(GRAPH, GraphQuery(name="Luc",
                                           birth_years=frozenset({1979})))
    assert got == {"p5"}
    got = reverse_search(GRAPH, GraphQuery(name="Luc",
                                           birth_years=frozenset({1984}),
                                           liked_pages=frozenset({"p5"})))
    assert got == {"p1"}  # s9's likes minus the query page
    assert reverse_search(GRAPH, GraphQuery(birth_years=frozenset())) == set()


def test_matching_merges_year_cells_in_input_order():
    # A window across New Year hits two cells whose users interleave.
    users = [user("a0", "Ann", 1981, {"p1"}), user("a1", "ANN", 1980, set()),
             user("a2", "ann", 1981, set()), user("b0", "Bob", 1980, set())]
    graph = SocialGraph(users)
    for years in ({1980, 1981}, {1981, 1980, 1979}):
        q = GraphQuery("aNN", frozenset(years))
        assert graph.matching(q) == users[:3]
    q = GraphQuery("Ann", frozenset({1981}))
    assert graph.matching(q) == [users[0], users[2]]
    assert graph.matching(GraphQuery("Ann", frozenset({1980, 1981}),
                                     frozenset({"p1"}))) == users[:1]


def test_forward_reverse_equal_brute_force_exhaustive(rng):
    # populations up to 200 users, five random queries each. Names: unset,
    # absent, drawn (in changed case too). Birth-year sets: unset, up to
    # three years around a user's, years of users sharing a name (so several
    # name-and-year cells are hit), the population's edge years with the
    # years just outside, the empty set and years nobody has.
    lo, hi = BIRTH_RANGE[0].year, BIRTH_RANGE[1].year
    for trial in range(60):
        n = rng.randrange(1, 201)
        world = generate_population(n, 80, 1.0, seed=trial, mean_likes=3.0)
        pop = list(world.users.values())
        graph = SocialGraph(pop)
        for _ in range(5):
            drawn = rng.choice(pop)
            name = rng.choice([None, "John", drawn.first_name,
                               drawn.first_name.upper(),
                               drawn.first_name.swapcase()])
            y0 = drawn.true_birthdate.year
            namesakes = [u.true_birthdate.year for u in pop
                         if u.first_name == drawn.first_name]
            years = rng.choice([
                None,
                frozenset(rng.sample(range(y0 - 3, y0 + 4),
                                     rng.randrange(0, 4))),
                frozenset(rng.sample(namesakes,
                                     rng.randrange(1, len(namesakes) + 1))),
                frozenset(rng.choice([(lo - 1, lo), (lo, lo + 1), (hi - 1, hi),
                                      (hi, hi + 1)])),
                frozenset(),
                frozenset({lo - 10, hi + 10}),
            ])
            pages = set(rng.sample(world.catalog.page_ids,
                                   rng.choice([0, 0, 1, 2])))
            q = GraphQuery(name, years, frozenset(pages))
            assert graph.matching(q) == brute_matching(pop, q)
            assert forward_search(graph, q) == brute_forward(pop, name, years,
                                                             pages)
            assert reverse_search(graph, q) == brute_reverse(pop, name, years,
                                                             pages)


def test_candidate_birth_years():
    assert candidate_birth_years(date(1980, 6, 1), fuzzy=False) == {1980}
    assert candidate_birth_years(date(1980, 6, 1), fuzzy=True) == {1980}
    assert candidate_birth_years(date(1980, 1, 3), fuzzy=True) == {1979, 1980}
    assert candidate_birth_years(date(1980, 12, 29), fuzzy=True) == {1980, 1981}


def view_for(u, common, t=0.0, name=True, bday=True, social=None):
    return NearbyEntry(user_id=u.user_id, last_active_t=t,
                       first_name=u.first_name if name else None,
                       distance_m=None,
                       fuzzy_birthdate=u.true_birthdate if bday else None,
                       common_likes=frozenset(common),
                       social_id=social)


def test_identify_unique_like_round_zero():
    victim = HANDCRAFTED[8]  # only s8 likes p5 among 1979 Lucs
    res = identify(view_for(victim, {"p5"}), GRAPH, birthdate_is_fuzzy=False,
                   trace=AttackTrace())
    assert res.identified and res.social_id == "s8"
    assert res.pool_sizes == [1]
    assert res.rounds_used == 0


def test_identify_twins_stall_at_two():
    twins = [user("t0", "Ann", 1988, {"p1", "p2"}),
             user("t1", "Ann", 1988, {"p1", "p2"}),
             user("t2", "Bob", 1988, {"p3"})]
    res = identify(view_for(twins[0], {"p1"}), SocialGraph(twins),
                   like_and_refresh=lambda pages: view_for(twins[0], {"p1", "p2"}),
                   birthdate_is_fuzzy=False, trace=AttackTrace())
    # One round confirms p2, which both twins like; then no page is left
    # to try, so refinement stops well before max_rounds.
    assert not res.identified
    assert res.rounds_used == 1
    assert res.pools[-1] == {"t0", "t1"}


def test_identify_rejects_empty_rounds_and_batches():
    # batch_size=0 used to spend every round liking nothing, and -1 liked
    # all candidate pages but one at once.
    view = view_for(HANDCRAFTED[0], set(), bday=False)
    for kwargs, message in [({"max_rounds": 0}, "max_rounds must be >= 1"),
                            ({"batch_size": 0}, "batch_size must be >= 1"),
                            ({"batch_size": -1}, "batch_size must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            identify(view, GRAPH, like_and_refresh=lambda pages: view,
                     trace=AttackTrace(), **kwargs)


def test_identify_social_id_short_circuit():
    victim = HANDCRAFTED[0]
    trace = AttackTrace()
    res = identify(view_for(victim, set(), social="s0"), GRAPH, trace=trace)
    assert res.identified and res.social_id == "s0"
    assert res.rounds_used == 0
    assert trace.events == []


def test_identify_insufficient_selectors():
    # Neither a name nor common likes: the pool starts from everyone (or
    # everyone born in the shown year) and cannot refine without refreshes.
    victim = HANDCRAFTED[0]
    res = identify(view_for(victim, set(), name=False, bday=False), GRAPH,
                   trace=AttackTrace())
    assert res.pools[0] == {u.social_id for u in HANDCRAFTED}
    assert res.pool_sizes == [len(HANDCRAFTED)]
    assert res.rounds_used == 0 and not res.identified
    res = identify(view_for(victim, set(), name=False), GRAPH,
                   trace=AttackTrace())
    assert res.pools == [{u.social_id for u in HANDCRAFTED
                          if u.true_birthdate.year == 1979}]
    assert res.rounds_used == 0


def test_identify_pool_subset_invariant_and_soundness():
    # service-backed loop over a synthetic population with fuzzy birthdates
    world = generate_population(400, 300, 1.0, seed=17, mean_likes=5.0)
    world.add_user(SimUser("attacker", "Mallory", date(1990, 1, 1),
                           stationary_trajectory(world.bbox.center),
                           set(world.catalog.page_ids[:10]), "fb-attacker"))
    svc = ProximityService(world, DisclosurePolicy())  # tinder-like defaults
    session = svc.login("attacker")
    svc.nearby(session, 1e9)
    population = SocialGraph(u for u in world.users.values()
                             if u.user_id != "attacker")
    initial = set(world.users["attacker"].likes)
    for vid in sorted(world.users)[:25]:
        if vid == "attacker":
            continue
        world.users["attacker"].likes = set(initial)
        view = svc.profile(session, vid)

        def refresh(pages, _vid=vid):
            world.add_likes("attacker", pages)
            return svc.profile(session, _vid)

        res = identify(view, population, like_and_refresh=refresh,
                       trace=AttackTrace())
        assert res.pool_sizes == sorted(res.pool_sizes, reverse=True)
        truth_sid = world.users[vid].social_id
        for pool in res.pools:
            assert truth_sid in pool
        if res.identified:
            assert res.social_id == truth_sid


def test_categories_mode_weaker_than_pages():
    world = generate_population(2000, 500, 1.0, seed=23, mean_likes=5.0)
    world.add_user(SimUser("attacker", "Mallory", date(1990, 1, 1),
                           stationary_trajectory(world.bbox.center),
                           set(world.catalog.page_ids[:10]), "fb-attacker"))
    population = SocialGraph(u for u in world.users.values()
                             if u.user_id != "attacker")
    initial = set(world.users["attacker"].likes)
    hits = {"pages": 0, "categories": 0}
    for mode in ("pages", "categories"):
        svc = ProximityService(world, DisclosurePolicy(interests_mode=mode))
        session = svc.login("attacker")
        svc.nearby(session, 1e9)
        for vid in sorted(world.users)[:20]:
            if vid == "attacker":
                continue
            world.users["attacker"].likes = set(initial)
            view = svc.profile(session, vid)

            def refresh(pages, _vid=vid):
                world.add_likes("attacker", pages)
                return svc.profile(session, _vid)

            res = identify(view, population, like_and_refresh=refresh,
                           interests_are_pages=(mode == "pages"),
                           trace=AttackTrace())
            truth_sid = world.users[vid].social_id
            hits[mode] += int(res.identified and res.social_id == truth_sid)
    assert hits["categories"] < hits["pages"]


# Few names (differing only in case, too), birthdates near a year boundary
# so a fuzzy date spans two years, and a small page catalog: pools stay
# large enough that refinement runs several rounds.
NAMES = ["Ann", "ann", "ANN", "Bob", "Cy"]
PAGES = [f"p{i}" for i in range(8)]
TRAJ = stationary_trajectory(GeoPoint(41.4, 2.15))
MOSTLY = st.sampled_from([True, True, True, False])


@st.composite
def identification_cases(draw):
    users = [SimUser(f"u{i}", draw(st.sampled_from(NAMES)),
                     draw(st.dates(date(1979, 12, 1), date(1981, 1, 31))), TRAJ,
                     set(draw(st.frozensets(st.sampled_from(PAGES), max_size=5))),
                     f"s{i}")
             for i in range(draw(st.integers(1, 30)))]
    victim = draw(st.sampled_from(users))
    birthdate = draw(st.sampled_from(["exact", "fuzzy", "hidden"]))
    shown = {"exact": victim.true_birthdate,
             "fuzzy": victim.true_birthdate + timedelta(days=draw(
                 st.integers(-FUZZ_WINDOW_DAYS, FUZZ_WINDOW_DAYS))),
             "hidden": None}[birthdate]
    attacker_likes = set(draw(st.frozensets(st.sampled_from(PAGES))))
    view = NearbyEntry(user_id=victim.user_id, last_active_t=0.0,
                       first_name=victim.first_name if draw(MOSTLY) else None,
                       distance_m=None, fuzzy_birthdate=shown,
                       common_likes=frozenset(attacker_likes & victim.likes),
                       social_id=None)
    kwargs = dict(max_rounds=draw(st.integers(1, 5)),
                  batch_size=draw(st.integers(1, 4)),
                  interests_are_pages=draw(MOSTLY),
                  birthdate_is_fuzzy=(birthdate == "fuzzy"))
    return users, victim, view, attacker_likes, draw(MOSTLY), kwargs


def _run_identification(fn, population, victim, view, attacker_likes,
                        refresh, kwargs):
    likes, batches = set(attacker_likes), []

    def like_and_refresh(pages):
        batches.append(set(pages))
        likes.update(pages)
        return NearbyEntry(view.user_id, view.last_active_t, view.first_name,
                           view.distance_m, view.fuzzy_birthdate,
                           frozenset(likes & victim.likes), view.social_id)

    res = fn(view, population,
             like_and_refresh=like_and_refresh if refresh else None, **kwargs)
    return res, batches


@settings(max_examples=300, deadline=None)
@given(identification_cases())
def test_identify_equals_brute_force_loop(case):
    users, victim, view, attacker_likes, refresh, kwargs = case
    graph = SocialGraph(users)
    assert list(graph) == users
    trace = AttackTrace()
    got, got_batches = _run_identification(partial(identify, trace=trace),
                                           graph, victim, view,
                                           attacker_likes, refresh, kwargs)
    want, want_batches = _run_identification(brute_identify, users, victim,
                                              view, attacker_likes, refresh,
                                              kwargs)
    assert got_batches == want_batches
    assert got.pools == want.pools
    assert got.pool_sizes == want.pool_sizes
    assert got.rounds_used == want.rounds_used
    assert got.identified == want.identified
    assert got.social_id == want.social_id
    # One identify_round per pool: the attribute match, then each round.
    assert [e.kind for e in trace.events] == ["identify_round"] * len(got.pools)


def test_identification_csv(tmp_path):
    def pools(*sizes):
        return [frozenset(f"s{i}" for i in range(n)) for n in sizes]

    rows = [(1, IdentificationResult(pools(5, 1))),
            (2, IdentificationResult(pools(4, 2, 2)))]
    out = write_csv(tmp_path / "ident.csv",
                    ("seed", "rounds_used", "final_pool", "identified"),
                    ((seed, r.rounds_used, r.pool_sizes[-1], int(r.identified))
                     for seed, r in rows))
    lines = out.read_text().splitlines()
    assert lines == ["seed,rounds_used,final_pool,identified",
                     "1,1,1,1", "2,2,2,0"]
