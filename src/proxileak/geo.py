"""Geodetic and local-Cartesian coordinates.

Positions come in two flavours: :class:`GeoPoint` (latitude/longitude in
degrees) and :class:`EnuPoint` (meters east/north of a geodetic reference).
The local frame is an equirectangular tangent plane on a sphere of mean
radius 6,371,008.8 m. That keeps pairwise-distance distortion below 0.1%
at city scale; the conversion refuses points more than 100 km from the
reference, where the flat-plane model stops being honest.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from operator import attrgetter

EARTH_RADIUS_M = 6_371_008.8

# Beyond this great-circle range the tangent-plane approximation is refused.
MAX_TANGENT_RANGE_M = 100_000.0


class CoordinateError(ValueError):
    """Latitude or longitude outside the representable range."""


class TangentRangeError(ValueError):
    """Point too far from the reference for the flat-plane conversion."""


_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields, in order, as ``__slots__`` and sets them
    in ``__init__`` with ``object.__setattr__``. Its instances equal those
    of the same class whose fields are equal, hash as the tuple of their
    fields, print as ``Name(field=value, ...)`` and refuse any assignment
    or deletion with ``AttributeError``. Pickling and copying restore the
    fields as they were, without running ``__init__`` again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # The field tuple; attrgetter of one name returns the bare value.
        cls._values = property(get if len(cls.__slots__) > 1
                               else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


def _normalize_lon(lon_deg: float) -> float:
    lon = math.fmod(lon_deg + 180.0, 360.0)
    if lon < 0.0:
        lon += 360.0
    return lon - 180.0


class GeoPoint(Frozen):
    """A geodetic position. Longitude is normalized into [-180, 180)."""

    __slots__ = ("lat_deg", "lon_deg")

    def __init__(self, lat_deg: float, lon_deg: float) -> None:
        if not (math.isfinite(lat_deg) and -90.0 <= lat_deg <= 90.0):
            raise CoordinateError(f"latitude out of range [-90, 90]: {lat_deg!r}")
        if not math.isfinite(lon_deg):
            raise CoordinateError(f"longitude must be finite: {lon_deg!r}")
        _set(self, "lat_deg", lat_deg)
        _set(self, "lon_deg", _normalize_lon(lon_deg))


class EnuPoint(Frozen):
    """A local tangent-plane position: meters east (x) / north (y) of ``ref``."""

    __slots__ = ("x_m", "y_m", "ref")

    def __init__(self, x_m: float, y_m: float, ref: GeoPoint) -> None:
        _set(self, "x_m", x_m)
        _set(self, "y_m", y_m)
        _set(self, "ref", ref)


def _wrap_delta_lon(dl: float) -> float:
    # Shortest signed longitude difference; sign-symmetric so that swapping
    # the endpoints negates it exactly (keeps haversine bit-symmetric).
    if dl > 180.0:
        return dl - 360.0
    if dl < -180.0:
        return dl + 360.0
    return dl


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on the mean-radius sphere."""
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dphi = math.radians(b.lat_deg - a.lat_deg)
    dlam = math.radians(_wrap_delta_lon(b.lon_deg - a.lon_deg))
    s = (math.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def to_enu(p: GeoPoint, ref: GeoPoint) -> EnuPoint:
    """Project ``p`` onto the tangent plane anchored at ``ref``.

    Equirectangular: x = R * dlon * cos(lat_ref), y = R * dlat, with angles
    in radians. Raises :class:`TangentRangeError` beyond 100 km from ``ref``.
    """
    if haversine_m(p, ref) >= MAX_TANGENT_RANGE_M:
        raise TangentRangeError(
            f"point is beyond {MAX_TANGENT_RANGE_M / 1000.0:.0f} km of the reference")
    dlat = math.radians(p.lat_deg - ref.lat_deg)
    dlon = math.radians(_wrap_delta_lon(p.lon_deg - ref.lon_deg))
    x = EARTH_RADIUS_M * dlon * math.cos(math.radians(ref.lat_deg))
    y = EARTH_RADIUS_M * dlat
    return EnuPoint(x, y, ref)


def from_enu(p: EnuPoint) -> GeoPoint:
    """Invert :func:`to_enu`; round-trips are exact to well under 0.01 m."""
    ref = p.ref
    lat = ref.lat_deg + math.degrees(p.y_m / EARTH_RADIUS_M)
    lon = ref.lon_deg + math.degrees(
        p.x_m / (EARTH_RADIUS_M * math.cos(math.radians(ref.lat_deg))))
    return GeoPoint(lat, lon)

