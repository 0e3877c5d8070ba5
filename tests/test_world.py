import datetime
import gc
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from oracles import oracle_population, oracle_sample_likes, times_position_at
from proxileak import runner
from proxileak.config import parse_scenario
from proxileak.geo import EARTH_RADIUS_M, CoordinateError, GeoPoint, haversine_m
from proxileak.world import (DEFAULT_BBOX, MAX_LIKES_PER_USER, BoundingBox,
                             DisclosurePolicy, POLICY_PRESETS, PageCatalog,
                             Trajectory, commuter_trajectory, fuzz_birthdate,
                             gc_paused, generate_population, quantize_distance,
                             stationary_trajectory)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# -- population generation ------------------------------------------------------

def test_population_shape_and_determinism():
    w1 = generate_population(250, 1000, 1.0, seed=5)
    w2 = generate_population(250, 1000, 1.0, seed=5)
    assert len(w1.users) == 250
    catalog_ids = set(w1.catalog.page_ids)
    for uid, u in w1.users.items():
        assert u.likes <= catalog_ids
        assert w2.users[uid].likes == u.likes
        assert w2.users[uid].first_name == u.first_name
        assert w2.users[uid].true_birthdate == u.true_birthdate
    assert len({u.user_id for u in w1.users.values()}) == 250
    assert len({u.social_id for u in w1.users.values()}) == 250


@st.composite
def bboxes(draw):
    lat = sorted(draw(st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=2,
                               unique=True)))
    lon = sorted(draw(st.lists(st.floats(-180.0, 180.0), min_size=2, max_size=2,
                               unique=True)))
    return BoundingBox(lat[0], lon[0], lat[1], lon[1])


# zipf_s near 60 leaves only rank 1 drawable, so the draw budget runs out.
# A config's seed is any int, negative or past 64 bits.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), catalog_size=st.integers(1, 2000),
       zipf_s=st.floats(0.0, 60.0, exclude_min=True),
       seed=st.integers(-2**200, 2**200), bbox=bboxes(),
       mean_likes=st.floats(0.0, 1e3), n_categories=st.integers(1, 40),
       count=st.integers(0, 80), draw_seed=st.integers(0, 2**32))
def test_build_equals_the_oracle_loop(n, catalog_size, zipf_s, seed, bbox,
                                      mean_likes, n_categories, count,
                                      draw_seed):
    world = generate_population(n, catalog_size, zipf_s, seed, bbox=bbox,
                                mean_likes=mean_likes, n_categories=n_categories)
    page_ids, categories, users = oracle_population(
        n, catalog_size, zipf_s, seed, bbox, mean_likes, n_categories)
    assert world.catalog.page_ids == page_ids
    assert {p: world.catalog.category_of(p) for p in page_ids} == categories
    assert [(u.user_id, u.first_name, u.true_birthdate, u.trajectory.waypoints,
             u.likes, u.social_id) for u in world.users.values()] == users
    # The last draw of each user leaves its rng behind, so check the state
    # sample_likes leaves directly.
    got, want = random.Random(draw_seed), random.Random(draw_seed)
    assert (world.catalog.sample_likes(count, got)
            == oracle_sample_likes(page_ids, world.catalog._cum, count, want))
    assert got.getstate() == want.getstate()


def test_population_of_one():
    w = generate_population(1, 50, 1.0, seed=9)
    assert len(w.users) == 1
    only = next(iter(w.users.values()))
    assert only.likes <= set(w.catalog.page_ids)


def test_different_seeds_differ():
    w1 = generate_population(50, 200, 1.0, seed=1)
    w2 = generate_population(50, 200, 1.0, seed=2)
    assert any(w1.users[u].likes != w2.users[u].likes or
               w1.users[u].first_name != w2.users[u].first_name
               for u in w1.users)


def test_top10_share_fraction_in_band():
    # Calibration scenario: small mean like count keeps the share-a-like
    # fraction against a top-10 attacker near the 20% anchor.
    top_hits = 0
    total = 0
    for seed in range(10):
        w = generate_population(250, 1000, 1.0, seed=seed, mean_likes=0.7)
        top10 = set(w.catalog.page_ids[:10])
        top_hits += sum(1 for u in w.users.values() if u.likes & top10)
        total += len(w.users)
    assert 0.10 <= top_hits / total <= 0.35


def test_like_rank_frequencies_decay():
    # Decile aggregates of like counts must be non-increasing in rank.
    w = generate_population(20_000, 1000, 1.0, seed=3, mean_likes=5.0)
    counts = dict.fromkeys(w.catalog.page_ids, 0)
    for u in w.users.values():
        for page in u.likes:
            counts[page] += 1
    ranked = [counts[p] for p in w.catalog.page_ids]  # rank order
    deciles = [sum(ranked[i:i + 100]) for i in range(0, 1000, 100)]
    assert deciles == sorted(deciles, reverse=True)


def test_catalog_memory_is_bounded_by_the_catalog_not_the_categories():
    tracemalloc.start()
    try:
        catalog = PageCatalog(200, 2_000_000, 1.0, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert all(catalog.category_of(p).startswith("cat") for p in catalog.page_ids)


def test_steep_catalog_fills_likes_from_the_top_ranks():
    # At zipf_s=40 the cumulative weights stop growing after rank 2, so only
    # pages 1 and 2 can be drawn; the draw budget ends the sampling and the
    # next best ranks fill the rest.
    catalog = PageCatalog(100, 25, 40.0, seed=1)
    rng = random.Random(5)
    likes = catalog.sample_likes(30, rng)
    assert likes == set(catalog.page_ids[:30])
    assert catalog.sample_likes(100, rng) == set(catalog.page_ids[:100])


def test_huge_mean_likes_gives_every_user_the_cap():
    # Above ~1e16, mean / (1 + mean) rounds to 1.0, whose log is 0.
    w = generate_population(20, 100, 1.0, seed=4, mean_likes=1e17)
    assert all(len(u.likes) == MAX_LIKES_PER_USER for u in w.users.values())


# -- birthdate fuzz --------------------------------------------------------------

def test_fuzz_offset_within_window_and_stable():
    d = datetime.date(1990, 6, 15)
    for uid in (f"u{i:05d}" for i in range(500)):
        f1 = fuzz_birthdate(d, uid, seed=7)
        f2 = fuzz_birthdate(d, uid, seed=7)
        assert f1 == f2
        assert abs((f1 - d).days) <= 7


def test_fuzz_distribution_uniform_chi_square():
    d = datetime.date(1985, 3, 3)
    n = 10_000
    buckets = {k: 0 for k in range(-7, 8)}
    for i in range(n):
        off = (fuzz_birthdate(d, f"u{i}", seed=12) - d).days
        buckets[off] += 1
    expected = n / 15.0
    stat = sum((c - expected) ** 2 / expected for c in buckets.values())
    assert stat < chi2.ppf(0.99, df=14)


# -- quantization -----------------------------------------------------------------

def test_quantize_examples():
    assert quantize_distance(347.0, 100.0) == 300.0
    assert quantize_distance(99.99, 100.0) == 0.0
    assert quantize_distance(123.4, 0.0) == 123.4


def test_quantize_bounds(rng):
    for _ in range(1000):
        d = rng.uniform(0, 10_000)
        q = rng.choice([10.0, 50.0, 100.0, 500.0])
        v = quantize_distance(d, q)
        assert v <= d < v + q
        assert v / q == int(v / q)


def test_quantize_rejects_negative():
    with pytest.raises(ValueError):
        quantize_distance(-1.0, 10.0)


# -- trajectories ------------------------------------------------------------------

def test_trajectory_knot_exactness_and_midpoint(bcn):
    b = GeoPoint(bcn.lat_deg + 0.009, bcn.lon_deg)  # ~1 km north
    traj = Trajectory([(0.0, bcn), (100.0, b)])
    assert traj.position_at(0.0) == bcn
    assert traj.position_at(100.0) == b
    mid = traj.position_at(50.0)
    assert abs(haversine_m(mid, bcn) - haversine_m(mid, b)) < 1.0
    assert haversine_m(mid, bcn) == pytest.approx(haversine_m(bcn, b) / 2, abs=1.0)


def test_trajectory_stationary(bcn):
    traj = stationary_trajectory(bcn)
    assert traj.waypoints == [(0.0, bcn)]
    for t in (0.0, 123.4, 1e9):
        assert traj.position_at(t) == bcn


def test_trajectory_holds_its_ends(bcn):
    b = GeoPoint(bcn.lat_deg + 0.01, bcn.lon_deg)
    traj = Trajectory([(10.0, bcn), (20.0, b)])
    for t in (-1e9, -0.1, 0.0, 9.9, 10.0):
        assert traj.position_at(t) == bcn
    for t in (20.0, 20.1, 1e9, math.inf):
        assert traj.position_at(t) == b
    with pytest.raises(ValueError):
        Trajectory([(1.0, bcn), (1.0, bcn)])


@st.composite
def trajectories_and_queries(draw):
    times = sorted(draw(st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=50,
                                 unique=True)))
    lat, lon = draw(st.floats(-80.0, 80.0)), draw(st.floats(-180.0, 180.0))
    near = st.tuples(st.floats(lat - 0.3, lat + 0.3), st.floats(lon - 0.3, lon + 0.3))
    waypoints = [(t, GeoPoint(*draw(near))) for t in times]
    gap = st.floats(1e-6, 1e6)
    queries = [times[0] - draw(gap), -math.inf, times[-1] + draw(gap), math.inf]
    queries += draw(st.lists(st.sampled_from(times), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 5)) if len(times) > 1 else 0):
        k = draw(st.integers(0, len(times) - 2))
        frac = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        queries.append(times[k] + frac * (times[k + 1] - times[k]))
    return waypoints, queries


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trajectories_and_queries())
def test_position_at_matches_a_bisect_over_a_list_of_times(case):
    waypoints, queries = case
    traj = Trajectory(waypoints)
    assert traj.waypoints == waypoints
    for t in queries:
        assert traj.position_at(t) == times_position_at(waypoints, t), t
    # A waypoint's own position comes back, not a round trip through the plane.
    for t, p in waypoints:
        assert traj.position_at(t) is p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trajectories_and_queries(), st.data())
def test_trajectory_rejects_times_that_do_not_increase(case, data):
    waypoints, _ = case
    # Insert, after waypoint k - 1, one whose time repeats or precedes it.
    k = data.draw(st.integers(1, len(waypoints)))
    prev = waypoints[k - 1][0]
    t = data.draw(st.one_of(st.just(prev), st.floats(-2e7, prev)))
    bad = waypoints[:k] + [(t, waypoints[k - 1][1])] + waypoints[k:]
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(bad)


def test_commuter_dwells(bcn):
    work = GeoPoint(bcn.lat_deg + 0.045, bcn.lon_deg)
    traj = commuter_trajectory(bcn, work, 28_800, 1800, 28_800)
    assert traj.position_at(10_000) == bcn
    assert traj.position_at(40_000) == work
    moving = traj.position_at(28_800 + 900)
    assert 0 < haversine_m(moving, bcn) < haversine_m(bcn, work)


def test_random_walk_stays_in_bbox_and_steps(bcn):
    import random as _random

    from proxileak.world import DEFAULT_BBOX, random_walk_trajectory

    rng = _random.Random(3)
    start = DEFAULT_BBOX.center
    traj = random_walk_trajectory(start, 400.0, 600.0, 40, rng, DEFAULT_BBOX)
    assert traj.waypoints[-1][0] == 24_000.0
    prev = start
    for t, p in traj.waypoints[1:]:
        assert DEFAULT_BBOX.lat_min <= p.lat_deg <= DEFAULT_BBOX.lat_max
        assert DEFAULT_BBOX.lon_min <= p.lon_deg <= DEFAULT_BBOX.lon_max
        assert haversine_m(prev, p) <= 400.0 + 1.0  # clamping only shortens
        prev = p


# -- policy / world ownership -------------------------------------------------------

def test_policy_presets_sane():
    assert POLICY_PRESETS["grindr"].share_distance is False
    assert POLICY_PRESETS["happn"].share_social_id is True
    assert POLICY_PRESETS["tinder"].birthdate_mode == "fuzzy_15d"
    with pytest.raises(ValueError):
        DisclosurePolicy(birthdate_mode="sometimes")


def test_policy_quantum_keeps_quantized_distances_finite():
    # No haversine_m distance exceeds half the circumference.
    longest = math.pi * EARTH_RADIUS_M
    for q in (5e-324, 1e-301):
        with pytest.raises(ValueError):
            DisclosurePolicy(distance_quantum_m=q)
    for q in (1.2e-301, 1e-300):
        DisclosurePolicy(distance_quantum_m=q)
        assert math.isfinite(quantize_distance(longest, q))
    # An infinite quantum made every distance NaN; a NaN one raised at the
    # first quantization.
    for q in (math.inf, math.nan):
        with pytest.raises(ValueError, match="distance_quantum_m"):
            DisclosurePolicy(distance_quantum_m=q)


# -- garbage collector state ---------------------------------------------------------

def test_gc_paused_restores_the_prior_state(gc_state):
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is gc_state
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("body failed")
    assert gc.isenabled() is gc_state


def test_building_a_world_changes_no_gc_state(gc_state):
    frozen = gc.get_freeze_count()
    generate_population(30, 50, 1.0, seed=2)
    runner.build_world(parse_scenario(SCENARIOS / "localize_bcn.cfg",
                                      {"n_users": "30"}))
    assert gc.isenabled() is gc_state
    assert gc.get_freeze_count() == frozen


def test_build_service_freezes_its_world(gc_state):
    # Enough users to pass the collector's generation-0 threshold.
    cfg = parse_scenario(SCENARIOS / "localize_bcn.cfg", {"n_users": "1000"})
    # The freeze comes before the collector resumes, so no collection
    # walks the world on its way out of the build.
    collections = []

    def on_collect(phase, info):
        collections.append(phase)

    gc.callbacks.append(on_collect)
    try:
        service = runner.build_service(cfg, cfg.seed)
        assert collections == []
        assert gc.isenabled() is gc_state
        # Frozen: tracked by the collector, but in none of its generations.
        users = list(service.world.users.values())
        assert all(gc.is_tracked(u) for u in users)
        assert gc.get_freeze_count() >= len(users)
        ids = {id(u) for u in users}
        assert not any(id(o) in ids for o in gc.get_objects())
    finally:
        gc.callbacks.remove(on_collect)
        gc.unfreeze()


def test_world_clock_and_overrides(bcn):
    w = generate_population(3, 50, 1.0, seed=1)
    uid = next(iter(w.users))
    p0 = w.position_of(uid)
    w.advance(100.0)
    assert w.now_s == 100.0
    with pytest.raises(ValueError):
        w.advance(-1.0)
    w.set_override(uid, bcn)
    assert w.position_of(uid) == bcn
    assert w.true_position_of(uid) == p0  # trajectory truth unaffected


def test_add_likes_validates_catalog():
    w = generate_population(2, 50, 1.0, seed=1)
    uid = next(iter(w.users))
    with pytest.raises(ValueError):
        w.add_likes(uid, {"nonexistent-page"})
    page = w.catalog.page_ids[0]
    w.add_likes(uid, {page})
    assert page in w.users[uid].likes


def test_bbox_validation():
    with pytest.raises(ValueError):
        BoundingBox(41.4, 2.2, 41.3, 2.3)
    for corners in [(41.0, 2.0, 91.0, 3.0), (-90.5, 2.0, 41.0, 3.0),
                    (41.0, -181.0, 42.0, 3.0), (41.0, 2.0, 42.0, 180.5),
                    (math.nan, 2.0, 42.0, 3.0), (41.0, 2.0, 42.0, math.inf),
                    (41.0, -math.inf, 42.0, 3.0)]:
        with pytest.raises(CoordinateError):
            BoundingBox(*corners)
    BoundingBox(-90.0, -180.0, 90.0, 180.0)  # the whole globe is valid
    assert DEFAULT_BBOX.center.lat_deg == pytest.approx(41.40)
