import gc
import math
import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DISCOVER_RADIUS_M, scan_nearby
from proxileak import service
from proxileak.geo import GeoPoint, from_enu, EnuPoint, haversine_m
from proxileak.service import (AuthError, NotFoundError, ProximityService,
                               RateError)
from proxileak.world import (BoundingBox, DisclosurePolicy, PageCatalog,
                             POLICY_PRESETS, SimUser, World, fuzz_birthdate,
                             generate_population, stationary_trajectory)


def make_service(n=20, seed=4, policy=None, **kw):
    world = generate_population(n, 200, 1.0, seed=seed, mean_likes=4.0)
    return world, ProximityService(world, policy or DisclosurePolicy(), **kw)


# -- login -----------------------------------------------------------------------

def test_login_happy_and_reject():
    world, svc = make_service()
    uid = next(iter(world.users))
    s = svc.login(uid)
    assert s.user_id == uid
    with pytest.raises(AuthError):
        svc.login("nobody")


def test_two_sessions_same_identity():
    world, svc = make_service()
    uid = next(iter(world.users))
    s1, s2 = svc.login(uid), svc.login(uid)
    assert s1 is not s2
    assert s1.user_id == s2.user_id
    assert s1.discovered is not s2.discovered


# -- update_location ---------------------------------------------------------------

def test_unconstrained_move():
    world, svc = make_service()
    uid = next(iter(world.users))
    s = svc.login(uid)
    p = world.bbox.center
    svc.update_location(s, p)
    assert world.position_of(uid) == p


def test_teleport_limit_rejects_and_preserves_position():
    world, svc = make_service(teleport_limit_m=10_000.0,
                              teleport_cooldown_s=math.inf)
    uid = next(iter(world.users))
    s = svc.login(uid)
    before = world.position_of(uid)
    far = GeoPoint(before.lat_deg + 0.45, before.lon_deg)  # ~50 km
    with pytest.raises(RateError):
        svc.update_location(s, far)
    assert world.position_of(uid) == before
    near = from_enu(EnuPoint(400.0, 300.0, before))
    svc.update_location(s, near)  # 500 m move fine
    assert world.position_of(uid) == near


def test_unlimited_moves_measure_no_distance(monkeypatch):
    world, svc = make_service()
    uid = next(iter(world.users))
    s = svc.login(uid)

    def unwanted(a, b):
        raise AssertionError("distance measured under an infinite limit")

    monkeypatch.setattr(service, "haversine_m", unwanted)
    far = GeoPoint(world.position_of(uid).lat_deg + 5.0, 2.2)
    svc.update_location(s, far)
    assert world.position_of(uid) == far


def test_teleport_limit_is_inclusive():
    world, svc = make_service(teleport_cooldown_s=math.inf)
    uid = next(iter(world.users))
    s = svc.login(uid)
    start = world.position_of(uid)
    step = from_enu(EnuPoint(300.0, 400.0, start))
    svc.teleport_limit_m = haversine_m(start, step)
    svc.update_location(s, step)  # exactly the limit
    assert world.position_of(uid) == step
    beyond = from_enu(EnuPoint(300.0, 400.001, step))
    assert haversine_m(step, beyond) > svc.teleport_limit_m
    with pytest.raises(RateError):
        svc.update_location(s, beyond)
    assert world.position_of(uid) == step


def test_teleport_cooldown_allows_jump():
    world, svc = make_service(teleport_limit_m=10_000.0,
                              teleport_cooldown_s=60.0)
    uid = next(iter(world.users))
    s = svc.login(uid)
    start = world.position_of(uid)
    svc.update_location(s, start)
    far = GeoPoint(start.lat_deg + 0.45, start.lon_deg)
    with pytest.raises(RateError):
        svc.update_location(s, far)
    world.advance(61.0)
    svc.update_location(s, far)
    assert world.position_of(uid) == far


# -- nearby -------------------------------------------------------------------------

def test_nearby_total_cover_and_ordering():
    world, svc = make_service(n=30)
    uid = next(iter(world.users))
    s = svc.login(uid)
    entries = svc.nearby(s, 1e6)
    assert len(entries) == 29  # everyone but the requester
    keys = [(e.distance_m, e.user_id) for e in entries]
    assert keys == sorted(keys)


def test_nearby_matches_brute_force(rng):
    for trial in range(10):
        world, svc = make_service(n=40, seed=trial)
        uid = sorted(world.users)[trial % 40]
        s = svc.login(uid)
        radius = rng.uniform(500, 8000)
        got = {e.user_id for e in svc.nearby(s, radius)}
        fresh = svc.login(uid)
        assert got == {e.user_id for e in scan_nearby(svc, fresh, radius)}


def test_nearby_rejects_bad_radius():
    world, svc = make_service()
    s = svc.login(next(iter(world.users)))
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="radius_m must be > 0"):
            svc.nearby(s, radius)
    assert len(svc.nearby(s, math.inf)) == len(world.users) - 1


def test_nearby_leaves_the_gc_state_as_found(gc_state):
    world, svc = make_service()
    s = svc.login(next(iter(world.users)))
    for radius in (500.0, math.inf):
        svc.nearby(s, radius)
        assert gc.isenabled() is gc_state


# Where the users of a drawn world live, as (lat_min, lon_min, lat_max,
# lon_max): a city, around the north pole, up to the antimeridian, anywhere.
SWEEP_REGIONS = ((41.35, 2.10, 41.45, 2.25), (89.0, -180.0, 89.9, 180.0),
                 (-0.5, 179.8, 0.5, 180.0), (-90.0, -180.0, 90.0, 180.0))


@st.composite
def sweeps(draw):
    """A small world of stationary users, maybe with one user's exact
    antipode, and a caller."""
    lat0, lon0, lat1, lon1 = draw(st.sampled_from(SWEEP_REGIONS))
    points = draw(st.lists(st.builds(GeoPoint, st.floats(lat0, lat1),
                                     st.floats(lon0, lon1)),
                           min_size=1, max_size=40))
    if draw(st.booleans()):
        points.append(GeoPoint(-points[0].lat_deg, points[0].lon_deg + 180.0))
    users = {f"u{i:03d}": SimUser(f"u{i:03d}", "Ana", date(1990, 1, 1),
                                  stationary_trajectory(p), {"p0"}, f"fb{i}")
             for i, p in enumerate(points)}
    world = World(users, PageCatalog(5, 2, 1.0, 0),
                  BoundingBox(lat0, lon0, lat1, lon1), seed=1)
    return world, draw(st.sampled_from(sorted(users)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sweeps())
def test_discover_marks_the_users_a_whole_world_nearby_returns(sweep):
    world, caller = sweep
    svc = ProximityService(world, DisclosurePolicy())
    marked, listed, scanned = (svc.login(caller) for _ in range(3))
    assert svc.discover(marked) is None
    svc.nearby(listed, DISCOVER_RADIUS_M)
    expected = {e.user_id for e in scan_nearby(svc, scanned, DISCOVER_RADIUS_M)}
    assert marked.discovered == listed.discovered == expected
    assert expected == set(world.users) - {caller}


# -- profile ---------------------------------------------------------------------------

def test_profile_requires_discovery():
    world, svc = make_service(n=5)
    ids = sorted(world.users)
    s = svc.login(ids[0])
    with pytest.raises(NotFoundError):
        svc.profile(s, ids[1])
    svc.nearby(s, 1e6)
    entry = svc.profile(s, ids[1])
    assert entry.user_id == ids[1]
    with pytest.raises(NotFoundError):
        svc.profile(s, "ghost")


def test_profile_reflects_movement():
    world, svc = make_service(n=5, policy=DisclosurePolicy(distance_quantum_m=100.0))
    ids = sorted(world.users)
    s = svc.login(ids[0])
    svc.nearby(s, 1e6)
    svc.update_location(s, world.true_position_of(ids[1]))
    entry = svc.profile(s, ids[1])
    assert entry.distance_m == 0.0
    svc.update_location(s, from_enu(EnuPoint(0.0, 550.0, world.true_position_of(ids[1]))))
    entry = svc.profile(s, ids[1])
    assert entry.distance_m == 500.0


# -- policy application -------------------------------------------------------------------

def test_distance_hidden_policy():
    world, svc = make_service(policy=POLICY_PRESETS["grindr"])
    s = svc.login(next(iter(world.users)))
    for e in svc.nearby(s, 1e6):
        assert e.distance_m is None
        assert e.first_name is None


def test_categories_mode_maps_pages():
    world, svc = make_service(policy=DisclosurePolicy(interests_mode="categories"))
    ids = sorted(world.users)
    a, b = ids[0], ids[1]
    # force a known overlap
    page = world.catalog.page_ids[0]
    world.add_likes(a, {page})
    world.add_likes(b, {page})
    s = svc.login(a)
    svc.nearby(s, 1e6)
    entry = svc.profile(s, b)
    assert world.catalog.category_of(page) in entry.common_likes
    assert page not in entry.common_likes


def test_common_likes_subset_of_requester():
    world, svc = make_service(n=30, seed=8)
    ids = sorted(world.users)
    s = svc.login(ids[0])
    me = world.users[ids[0]]
    for e in svc.nearby(s, 1e6):
        if e.common_likes is not None:
            assert set(e.common_likes) <= me.likes
            assert set(e.common_likes) <= world.users[e.user_id].likes


FIELD_GETTERS = {
    "share_distance": lambda e: e.distance_m,
    "share_first_name": lambda e: e.first_name,
    "share_social_id": lambda e: e.social_id,
}


def test_policy_soundness_fuzz(rng):
    # No response may carry a field the active policy disables, over random
    # policies x random queries.
    for trial in range(60):
        policy = DisclosurePolicy(
            share_distance=rng.random() < 0.5,
            distance_quantum_m=rng.choice([0.0, 10.0, 100.0, 500.0]),
            share_first_name=rng.random() < 0.5,
            birthdate_mode=rng.choice(["exact", "fuzzy_15d", "hidden"]),
            interests_mode=rng.choice(["pages", "categories", "hidden"]),
            share_social_id=rng.random() < 0.5,
        )
        world, svc = make_service(n=12, seed=trial, policy=policy)
        ids = sorted(world.users)
        s = svc.login(ids[rng.randrange(len(ids))])
        entries = svc.nearby(s, rng.uniform(1000, 1e6))
        target = rng.choice(ids)
        if target in s.discovered:
            entries = entries + [svc.profile(s, target)]
        for e in entries:
            for flag, getter in FIELD_GETTERS.items():
                if not getattr(policy, flag):
                    assert getter(e) is None
            if policy.birthdate_mode == "hidden":
                assert e.fuzzy_birthdate is None
            else:
                assert e.fuzzy_birthdate is not None
                truth = world.users[e.user_id].true_birthdate
                delta = abs((e.fuzzy_birthdate - truth).days)
                assert delta == 0 if policy.birthdate_mode == "exact" else delta <= 7
            if policy.interests_mode == "hidden":
                assert e.common_likes is None
            if policy.share_distance:
                true_d = haversine_m(world.position_of(s.user_id),
                                     world.position_of(e.user_id))
                q = policy.distance_quantum_m
                if q > 0:
                    assert e.distance_m <= true_d < e.distance_m + q
                else:
                    assert e.distance_m == true_d


def test_fuzzy_birthdate_stable_across_queries():
    world, svc = make_service(policy=DisclosurePolicy(birthdate_mode="fuzzy_15d"))
    ids = sorted(world.users)
    s = svc.login(ids[0])
    svc.nearby(s, 1e6)
    f1 = svc.profile(s, ids[1]).fuzzy_birthdate
    world.advance(3600.0)
    f2 = svc.profile(s, ids[1]).fuzzy_birthdate
    assert f1 == f2


def test_memoized_fuzz_equals_fuzz_birthdate_under_the_scenario_seed():
    world, svc = make_service(n=40, scenario_seed=99,
                              policy=DisclosurePolicy(birthdate_mode="fuzzy_15d"))
    s = svc.login("u00000")
    first = svc.nearby(s, 1e9)
    again = [svc.profile(s, e.user_id) for e in first]
    for e, p in zip(first, again):
        truth = world.users[e.user_id].true_birthdate
        assert e.fuzzy_birthdate == p.fuzzy_birthdate == fuzz_birthdate(
            truth, e.user_id, 99)
    # The scenario seed, not the world seed, drives the fuzz.
    assert any(e.fuzzy_birthdate != fuzz_birthdate(
        world.users[e.user_id].true_birthdate, e.user_id, world.seed)
        for e in first)
