"""The cell grid behind ``ProximityService.nearby`` changes no response.

Over random small worlds near the antimeridian, near both poles and in a
city, with location overrides, new trajectories, new users and clock
advances interleaved with queries, every ``nearby`` answer (order and every
field) and every ``session.discovered`` equal those of the whole-world scan
in ``tests/oracles.py``.
"""

import math
import random
from datetime import date

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import DISCOVER_RADIUS_M, scan_nearby
from proxileak.geo import EARTH_RADIUS_M, GeoPoint, haversine_m
from proxileak.service import ProximityService
from proxileak.world import (BoundingBox, DisclosurePolicy, PageCatalog,
                             SimUser, Trajectory, World, generate_population,
                             stationary_trajectory)

# Where users live, as (lat_min, lon_min, lat_max, lon_max). Longitudes past
# 180 wrap, so the first region straddles the antimeridian.
REGIONS = {
    "antimeridian": (-0.5, 179.8, 0.5, 180.2),
    "north": (89.0, -180.0, 89.9, 180.0),
    "south": (-89.9, -180.0, -89.0, 180.0),
    "city": (41.35, 2.10, 41.45, 2.25),
}
GLOBE = (-90.0, -180.0, 90.0, 180.0)
CATALOG = PageCatalog(20, 3, 1.0, 0)


def points(region):
    lat0, lon0, lat1, lon1 = region
    return st.builds(GeoPoint, st.floats(lat0, lat1), st.floats(lon0, lon1))


@st.composite
def trajectories(draw, region):
    """One waypoint, or two close ones (within the tangent-plane range)."""
    a = draw(points(region))
    if draw(st.booleans()):
        return stationary_trajectory(a)
    b = GeoPoint(min(90.0, max(-90.0, a.lat_deg + draw(st.floats(-0.01, 0.01)))),
                 a.lon_deg + draw(st.floats(-0.01, 0.01)))
    return Trajectory([(0.0, a), (draw(st.floats(1.0, 1e4)), b)])


def destination(p, bearing, angle):
    """The point ``angle`` radians from ``p`` along ``bearing``."""
    phi, lam = math.radians(p.lat_deg), math.radians(p.lon_deg)
    z = (math.sin(phi) * math.cos(angle)
         + math.cos(phi) * math.sin(angle) * math.cos(bearing))
    lat = math.asin(min(1.0, max(-1.0, z)))
    lon = lam + math.atan2(math.sin(bearing) * math.sin(angle) * math.cos(phi),
                           math.cos(angle) - math.sin(phi) * math.sin(lat))
    return GeoPoint(math.degrees(lat), math.degrees(lon))


@st.composite
def scenarios(draw):
    name = draw(st.sampled_from(sorted(REGIONS)))
    lat0, lon0, lat1, lon1 = region = REGIONS[name]
    # The bbox sets the cell size; a shrunken one makes a finer grid.
    shrink = draw(st.sampled_from([1.0, 1.0, 0.1, 0.01]))
    bbox = BoundingBox(lat0, lon0, lat0 + (lat1 - lat0) * shrink,
                       lon0 + (min(lon1, 180.0) - lon0) * shrink)
    n = draw(st.integers(1, 30))
    anchored = draw(st.floats(0.5, 1.0))
    trajs = [stationary_trajectory(draw(points(region)))
             if draw(st.floats(0.0, 1.0)) < anchored else draw(trajectories(region))
             for _ in range(n)]
    # Often a crowd, so that wide boxes near a pole still take the grid.
    crowd = random.Random(draw(st.integers(0, 2**32)))
    trajs += [stationary_trajectory(GeoPoint(crowd.uniform(lat0, lat1),
                                             crowd.uniform(lon0, lon1)))
              for _ in range(draw(st.sampled_from([0, 300])))]
    index = st.integers(0, 10**6)
    # Radii in metres, as shares of the region's height, or the exact
    # distance to another user.
    radii = st.one_of(
        st.tuples(st.just("metres"), st.sampled_from([1.0, DISCOVER_RADIUS_M])),
        st.tuples(st.just("share"), st.floats(-3.0, 0.3)),
        st.tuples(st.just("distance to"), index))
    anywhere = st.one_of(points(region), points(GLOBE))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("nearby"), index, radii),
        # Move a user onto a circle around another, then query exactly that
        # circle. Its radius is a share of the region's height or of the way
        # to the pole, whichever is less. The user sits at a random bearing
        # or at the circle's widest longitude, east or west.
        st.tuples(st.just("ring"), index, index,
                  st.one_of(st.floats(0.0, 2 * math.pi),
                            st.sampled_from(["east", "west"])),
                  st.one_of(st.floats(0.0, 1.0),
                            st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e))),
        st.tuples(st.just("override"), index, anywhere),
        st.tuples(st.just("trajectory"), index, trajectories(region)),
        st.tuples(st.just("add"), trajectories(region)),
        st.tuples(st.just("advance"), st.floats(0.0, 5000.0))),
        min_size=8, max_size=30))
    quantum = draw(st.sampled_from([0.0, 100.0]))
    return region, bbox, trajs, ops, quantum


def make_user(uid, traj):
    return SimUser(uid, "Ana", date(1990, 1, 1), traj, set(), "fb-" + uid)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
def test_nearby_equals_whole_world_scan(scenario):
    (lat0, _, lat1, _), bbox, trajs, ops, quantum = scenario
    height = math.radians(lat1 - lat0)
    users = [make_user(f"u{i:03d}", t) for i, t in enumerate(trajs)]
    world = World({u.user_id: u for u in users}, CATALOG, bbox, seed=1)
    service = ProximityService(world, DisclosurePolicy(distance_quantum_m=quantum))
    ids = list(world.users)
    sessions = {}   # user id -> (session the grid serves, session the scan serves)

    def check(uid, radius):
        if uid not in sessions:
            sessions[uid] = service.login(uid), service.login(uid)
        grid_session, scan_session = sessions[uid]
        assert (service.nearby(grid_session, radius)
                == scan_nearby(service, scan_session, radius))
        assert grid_session.discovered == scan_session.discovered

    def distance(a, b):
        return haversine_m(world.position_of(a), world.position_of(b)) or 1.0

    for op in ops:
        kind = op[0]
        if kind == "nearby":
            uid = ids[op[1] % len(ids)]
            how, value = op[2]
            if how == "share":
                radius = height * EARTH_RADIUS_M * 10.0 ** value
            elif how == "distance to":
                radius = distance(uid, ids[value % len(ids)])
            else:
                radius = value
            check(uid, radius)
        elif kind == "ring":
            uid, other = ids[op[1] % len(ids)], ids[op[2] % len(ids)]
            center = world.position_of(uid)
            phi = math.radians(center.lat_deg)
            angle = op[4] * min(height, math.pi / 2.0 - abs(phi))
            bearing = op[3]
            if isinstance(bearing, str):
                # At the widest longitude, the meridian touches the circle.
                cos_b = max(-1.0, min(1.0, math.tan(angle) * math.tan(phi)))
                bearing = math.acos(cos_b) * (1.0 if op[3] == "east" else -1.0)
            world.set_override(other, destination(center, bearing, angle))
            check(uid, distance(uid, other))
        elif kind == "override":
            world.set_override(ids[op[1] % len(ids)], op[2])
        elif kind == "trajectory":
            world.set_trajectory(ids[op[1] % len(ids)], op[2])
        elif kind == "add":
            uid = f"n{len(ids):03d}"
            world.add_user(make_user(uid, op[1]))
            ids.append(uid)
        else:
            world.advance(op[1])


def test_whole_world_radius_never_builds_the_grid():
    world = generate_population(50, 100, 1.0, seed=3)
    service = ProximityService(world, DisclosurePolicy())
    session = service.login("u00000")
    assert len(service.nearby(session, DISCOVER_RADIUS_M)) == 49
    assert world._grid is None
    service.nearby(session, 500.0)
    assert world._grid is not None


def test_bbox_too_small_for_a_float_area_still_gives_a_grid():
    # (1e-200)**2 underflows to 0.0; the grid must still be usable.
    world = generate_population(50, 100, 1.0, seed=3,
                                bbox=BoundingBox(0.0, 0.0, 1e-200, 1e-200))
    service = ProximityService(world, DisclosurePolicy())
    grid_session, scan_session = service.login("u00000"), service.login("u00000")
    assert (service.nearby(grid_session, 500.0)
            == scan_nearby(service, scan_session, 500.0))
    assert world._grid is not None
