"""The simulated proximity application.

Sessions query for nearby users and poll individual profiles; every
response is filtered through the active :class:`DisclosurePolicy`, so a
field the policy disables is never present in any response. Distances are
quantized server-side before disclosure. All reads and writes go through
the single :class:`World` owner, so responses are linearizable with
respect to location updates.
"""

from __future__ import annotations

import math
from datetime import date

from .geo import Frozen, GeoPoint, _set, haversine_m
from .world import (DisclosurePolicy, World, fuzz_birthdate, gc_paused,
                    quantize_distance)

__all__ = [
    "NearbyEntry", "Session", "ProximityService",
    "AuthError", "NotFoundError", "RateError",
]


class AuthError(ValueError):
    """Unknown login token."""


class NotFoundError(KeyError):
    """User unknown, or never disclosed to this session."""


class RateError(ValueError):
    """Location update rejected by the teleport limit."""


class NearbyEntry(Frozen):
    """One policy-filtered view of another user.

    Optional fields are ``None`` exactly when the active policy disables
    them. ``common_likes`` holds page ids under the ``pages`` interests
    mode and category names under ``categories``.
    """

    __slots__ = ("user_id", "last_active_t", "first_name", "distance_m",
                 "fuzzy_birthdate", "common_likes", "social_id")

    def __init__(self, user_id: str, last_active_t: float,
                 first_name: str | None = None,
                 distance_m: float | None = None,
                 fuzzy_birthdate: date | None = None,
                 common_likes: frozenset[str] | None = None,
                 social_id: str | None = None) -> None:
        _set(self, "user_id", user_id)
        _set(self, "last_active_t", last_active_t)
        _set(self, "first_name", first_name)
        _set(self, "distance_m", distance_m)
        _set(self, "fuzzy_birthdate", fuzzy_birthdate)
        _set(self, "common_likes", common_likes)
        _set(self, "social_id", social_id)


class Session:
    def __init__(self, user_id: str):
        self.user_id = user_id
        self.discovered: set[str] = set()


class ProximityService:
    """In-process service front end over one world."""

    def __init__(self, world: World, policy: DisclosurePolicy,
                 teleport_limit_m: float = float("inf"),
                 teleport_cooldown_s: float = float("inf"),
                 scenario_seed: int | None = None):
        self.world = world
        self.policy = policy
        self.teleport_limit_m = teleport_limit_m
        self.teleport_cooldown_s = teleport_cooldown_s
        # Birthdate fuzz is stable per scenario; default to the world seed.
        self._fuzz_seed = world.seed if scenario_seed is None else scenario_seed
        # user_id -> fuzz_birthdate of that user under _fuzz_seed.
        self._fuzzy_birthdates: dict[str, date] = {}
        self._last_move_t: dict[str, float] = {}

    # -- session lifecycle -------------------------------------------------

    def login(self, token: str) -> Session:
        """Tokens are user ids; unknown tokens are rejected."""
        if token not in self.world.users:
            raise AuthError(f"unknown token {token!r}")
        return Session(token)

    # -- requests ----------------------------------------------------------

    def update_location(self, session: Session, p: GeoPoint) -> None:
        """Move the caller's service-visible position to ``p``.

        Subject to the teleport limit: a move farther than the limit is
        rejected (leaving the stored position unchanged) unless the
        cooldown has elapsed since the caller's last move.
        """
        uid = session.user_id
        limit = self.teleport_limit_m
        # No move exceeds an infinite limit: skip the distance (a NaN limit
        # rejects nothing either way).
        if limit < math.inf and haversine_m(self.world.position_of(uid), p) > limit:
            # Cooldown counts from the last manual move (scenario start if none).
            waited = self.world.now_s - self._last_move_t.get(uid, 0.0)
            if waited < self.teleport_cooldown_s:
                raise RateError(
                    f"move exceeds the {self.teleport_limit_m} m teleport limit")
        self.world.set_override(uid, p)
        self._last_move_t[uid] = self.world.now_s

    def nearby(self, session: Session, radius_m: float) -> list[NearbyEntry]:
        """Everyone within ``radius_m`` of the caller, policy-filtered.

        Ordered by quantized distance, then user id. Returned users become
        discoverable by :meth:`profile` for this session.
        """
        if not radius_m > 0.0:   # also NaN
            raise ValueError("radius_m must be > 0")
        world = self.world
        position_of = world.position_of
        quantum = self.policy.distance_quantum_m
        my_id = session.user_id
        me = position_of(my_id)
        requester = world.users[my_id]
        # A whole-world sweep allocates a few acyclic objects per user.
        with gc_paused():
            hits = []
            for user in world.candidates_within(me, radius_m):
                uid = user.user_id
                if uid == my_id:
                    continue
                d = haversine_m(me, position_of(uid))
                if d <= radius_m:
                    hits.append((quantize_distance(d, quantum), uid, user))
            # Ids are unique, so the order never compares users.
            hits.sort()
            session.discovered.update([uid for _, uid, _ in hits])
            return [self._render(requester, user, qd) for qd, _, user in hits]

    def discover(self, session: Session) -> None:
        """Make every other user discoverable by :meth:`profile` for this
        session, without rendering any of them.

        Marks the users that ``nearby(session, math.pi * EARTH_RADIUS_M)``
        returns: that radius makes it scan every user, ``haversine_m`` is
        at most ``(2 * R) * asin(1)``, and since ``asin(1)`` is
        ``math.pi / 2`` exactly, that product rounds the same real number
        as ``math.pi * R`` does, so no distance exceeds it.
        """
        uid = session.user_id
        session.discovered.update(u for u in self.world.users if u != uid)

    def profile(self, session: Session, user_id: str) -> NearbyEntry:
        """Fresh policy-filtered view of a previously discovered user."""
        if user_id not in self.world.users or user_id not in session.discovered:
            raise NotFoundError(user_id)
        me = self.world.position_of(session.user_id)
        d = haversine_m(me, self.world.position_of(user_id))
        return self._render(self.world.users[session.user_id],
                            self.world.users[user_id],
                            quantize_distance(d, self.policy.distance_quantum_m))

    # -- policy application --------------------------------------------------

    def _render(self, requester, target, distance_m: float) -> NearbyEntry:
        """``target`` as ``requester`` sees it at the quantized
        ``distance_m``."""
        pol = self.policy
        distance = distance_m if pol.share_distance else None
        birthdate = None
        if pol.birthdate_mode == "exact":
            birthdate = target.true_birthdate
        elif pol.birthdate_mode == "fuzzy_15d":
            birthdate = self._fuzzy_birthdates.get(target.user_id)
            if birthdate is None:
                birthdate = fuzz_birthdate(target.true_birthdate, target.user_id,
                                           self._fuzz_seed)
                self._fuzzy_birthdates[target.user_id] = birthdate
        common = None
        if pol.interests_mode != "hidden":
            shared = requester.likes & target.likes
            if pol.interests_mode == "pages":
                common = frozenset(shared)
            else:
                common = frozenset(self.world.catalog.category_of(p) for p in shared)
        return NearbyEntry(
            user_id=target.user_id,
            last_active_t=self.world.now_s,
            first_name=target.first_name if pol.share_first_name else None,
            distance_m=distance,
            fuzzy_birthdate=birthdate,
            common_likes=common,
            social_id=target.social_id if pol.share_social_id else None,
        )
