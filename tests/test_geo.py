import math

import pytest

from oracles import law_of_cosines_m
from proxileak.geo import (CoordinateError, EnuPoint, GeoPoint,
                           TangentRangeError, from_enu, haversine_m, to_enu)


def test_origin_maps_to_origin(bcn):
    p = to_enu(bcn, bcn)
    assert p.x_m == 0.0 and p.y_m == 0.0


def test_small_northward_offset(bcn):
    # 0.001 deg of latitude on the mean sphere, cross-checked against the
    # haversine on the same pair.
    p = GeoPoint(bcn.lat_deg + 0.001, bcn.lon_deg)
    e = to_enu(p, bcn)
    assert e.x_m == 0.0
    assert e.y_m == pytest.approx(111.19, abs=0.02)
    assert e.y_m == pytest.approx(haversine_m(p, bcn), abs=1e-6)


def test_east_west_mirror(bcn):
    east = to_enu(GeoPoint(bcn.lat_deg, bcn.lon_deg + 0.01), bcn)
    west = to_enu(GeoPoint(bcn.lat_deg, bcn.lon_deg - 0.01), bcn)
    assert east.x_m == pytest.approx(-west.x_m)
    assert east.y_m == west.y_m == 0.0


def test_from_enu_identity(bcn):
    assert from_enu(EnuPoint(0.0, 0.0, bcn)) == bcn


def test_from_enu_northward_inverse(bcn):
    # Inverse of the derived forward case: the y that to_enu produces for a
    # +0.001 deg latitude offset must map back to that latitude.
    y = to_enu(GeoPoint(bcn.lat_deg + 0.001, bcn.lon_deg), bcn).y_m
    g = from_enu(EnuPoint(0.0, y, bcn))
    assert g.lat_deg == pytest.approx(bcn.lat_deg + 0.001, abs=1e-10)
    assert g.lon_deg == pytest.approx(bcn.lon_deg, abs=1e-12)


def test_round_trip_many_points(bcn, rng):
    for _ in range(10_000):
        p = GeoPoint(bcn.lat_deg + rng.uniform(-0.4, 0.4),
                     bcn.lon_deg + rng.uniform(-0.5, 0.5))
        if haversine_m(p, bcn) >= 50_000:
            continue
        back = from_enu(to_enu(p, bcn))
        assert haversine_m(p, back) < 0.01


def test_enu_euclidean_matches_haversine_at_city_scale(bcn, rng):
    # At this latitude the fixed cos(lat_ref) east scale costs about
    # dlat * tan(lat) of relative error, so the sub-0.1% promise is only
    # honest within ~7 km of the reference; pairs out to 20 km stay under
    # 0.35%. Attack scenes live well inside the tight regime.
    for _ in range(1000):
        a = GeoPoint(bcn.lat_deg + rng.uniform(-0.15, 0.15),
                     bcn.lon_deg + rng.uniform(-0.2, 0.2))
        b = GeoPoint(bcn.lat_deg + rng.uniform(-0.15, 0.15),
                     bcn.lon_deg + rng.uniform(-0.2, 0.2))
        reach = max(haversine_m(a, bcn), haversine_m(b, bcn))
        if reach >= 20_000:
            continue
        d = haversine_m(a, b)
        if d < 1.0:
            continue
        ea, eb = to_enu(a, bcn), to_enu(b, bcn)
        e = math.hypot(ea.x_m - eb.x_m, ea.y_m - eb.y_m)
        rel = abs(e - d) / d
        assert rel < 0.0035
        if reach < 7_000:
            assert rel < 0.001


def test_haversine_identity_and_symmetry(bcn, rng):
    assert haversine_m(bcn, bcn) == 0.0
    for _ in range(200):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 179))
        assert haversine_m(a, b) == haversine_m(b, a)
        assert haversine_m(a, b) >= 0.0


def test_haversine_barcelona_madrid():
    a = GeoPoint(41.3851, 2.1734)
    b = GeoPoint(40.4168, -3.7038)
    d = haversine_m(a, b)
    oracle = law_of_cosines_m(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)
    assert d == pytest.approx(oracle, rel=1e-9)
    assert d == pytest.approx(504_600, rel=0.005)


def test_haversine_triangle_inequality(rng):
    for _ in range(300):
        pts = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 179))
               for _ in range(3)]
        ab = haversine_m(pts[0], pts[1])
        bc = haversine_m(pts[1], pts[2])
        ac = haversine_m(pts[0], pts[2])
        assert ac <= ab + bc + 1e-6


def test_latitude_validation():
    with pytest.raises(CoordinateError):
        GeoPoint(90.0001, 0.0)
    with pytest.raises(CoordinateError):
        GeoPoint(float("nan"), 0.0)


def test_longitude_normalization():
    assert GeoPoint(0.0, 181.0).lon_deg == pytest.approx(-179.0)
    assert GeoPoint(0.0, -180.0).lon_deg == -180.0
    assert GeoPoint(0.0, 540.0).lon_deg == pytest.approx(180.0 - 360.0)


def test_tangent_range_refused(bcn):
    far = GeoPoint(bcn.lat_deg + 2.0, bcn.lon_deg)
    with pytest.raises(TangentRangeError):
        to_enu(far, bcn)

