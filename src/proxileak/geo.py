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
from dataclasses import FrozenInstanceError, dataclass

EARTH_RADIUS_M = 6_371_008.8

# Beyond this great-circle range the tangent-plane approximation is refused.
MAX_TANGENT_RANGE_M = 100_000.0


class CoordinateError(ValueError):
    """Latitude or longitude outside the representable range."""


class TangentRangeError(ValueError):
    """Point too far from the reference for the flat-plane conversion."""


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_slots(cls):
    """``dataclass(frozen=True, slots=True)``: a frozen value class whose
    instances carry no ``__dict__``.

    ``slots=True`` returns a new class, but the ``__setattr__`` and
    ``__delattr__`` that ``frozen=True`` generated still test against the
    old one. CPython 3.10-3.13 then sends an undeclared name on to
    ``super()`` with the old class, which raises ``TypeError``. Here every
    assignment and deletion raises ``FrozenInstanceError``, an
    ``AttributeError``, as on a frozen dataclass without slots.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


def _normalize_lon(lon_deg: float) -> float:
    lon = math.fmod(lon_deg + 180.0, 360.0)
    if lon < 0.0:
        lon += 360.0
    return lon - 180.0


@frozen_slots
class GeoPoint:
    """A geodetic position. Longitude is normalized into [-180, 180)."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat_deg) and -90.0 <= self.lat_deg <= 90.0):
            raise CoordinateError(f"latitude out of range [-90, 90]: {self.lat_deg!r}")
        if not math.isfinite(self.lon_deg):
            raise CoordinateError(f"longitude must be finite: {self.lon_deg!r}")
        object.__setattr__(self, "lon_deg", _normalize_lon(self.lon_deg))


@frozen_slots
class EnuPoint:
    """A local tangent-plane position: meters east (x) / north (y) of ``ref``."""

    x_m: float
    y_m: float
    ref: GeoPoint


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

