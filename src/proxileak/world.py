"""Synthetic ground truth: users, mobility, likes, and disclosure policy.

Everything here is reproducible from (parameters, seed): population layout,
per-user like sets drawn from a rank-skewed page catalog, birthdate fuzz
offsets, and trajectories. The :class:`World` owns the simulation clock;
services read through it and never mutate ground truth except via the
explicit helpers (``add_likes``).
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import random
from contextlib import contextmanager
from datetime import date, timedelta
from itertools import islice, pairwise
from operator import itemgetter
from typing import Iterable

from .geo import (EARTH_RADIUS_M, CoordinateError, EnuPoint, Frozen, GeoPoint,
                  _set, from_enu, to_enu)

__all__ = [
    "SimUser", "PageCatalog", "DisclosurePolicy", "Trajectory",
    "World", "BoundingBox", "POLICY_PRESETS", "BIRTHDATE_MODES",
    "INTERESTS_MODES",
    "generate_population", "fuzz_birthdate", "quantize_distance",
    "derive_seed", "stationary_trajectory", "commuter_trajectory",
    "random_walk_trajectory", "gc_paused",
]

# Common first names; enough repetition at population scale that a name
# alone rarely identifies anyone.
FIRST_NAMES = (
    "Alba", "Alex", "Alice", "Ana", "Andrea", "Anna", "Antonio", "Ben",
    "Carla", "Carlos", "Carmen", "Clara", "Daniel", "David", "Diego",
    "Elena", "Emma", "Eric", "Eva", "Gabriel", "Helena", "Hugo", "Ines",
    "Irene", "Ivan", "Jan", "Javier", "Joan", "Jordi", "Jorge", "Jose",
    "Juan", "Julia", "Laia", "Lara", "Laura", "Leo", "Lucas", "Lucia",
    "Luis", "Manuel", "Marc", "Maria", "Marina", "Mario", "Marta",
    "Martin", "Miguel", "Nerea", "Nicolas", "Noa", "Nora", "Nuria",
    "Olivia", "Oscar", "Pablo", "Paula", "Pedro", "Pol", "Raul", "Rocio",
    "Ruben", "Sara", "Sergio", "Silvia", "Sofia", "Teresa", "Valeria",
    "Vera", "Victor",
)

BIRTH_RANGE = (date(1965, 1, 1), date(2004, 12, 31))

FUZZ_WINDOW_DAYS = 7  # offsets drawn uniformly from {-7, ..., +7}

MAX_LIKES_PER_USER = 64

# Rank-weighted draws ``PageCatalog.sample_likes`` spends per requested
# page. Under a steep zipf_s the weights of low ranks vanish in the float
# cumulative sum, so those pages can never be drawn; past this budget the
# remaining slots go to the best-ranked pages not yet chosen.
MAX_DRAWS_PER_LIKE = 100

BIRTHDATE_MODES = ("exact", "fuzzy_15d", "hidden")
INTERESTS_MODES = ("pages", "categories", "hidden")


def derive_seed(master: int, *labels) -> int:
    """Stable 64-bit sub-seed for a labelled purpose under one master seed:
    the first 8 bytes, big-endian, of the SHA-256 of ``repr((master,) +
    labels)``."""
    return _text_seed(repr((master,) + labels))


def _text_seed(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8],
                          "big")


@contextmanager
def gc_paused():
    """Run the block with the cyclic garbage collector off, then restore
    the collector's prior state. For loops that allocate many acyclic
    objects, which only reference counting frees anyway. A block that
    ends in a freeze also keeps what it built out of every later
    collection (see ``runner.build_service``)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def quantize_distance(true_m: float, quantum_m: float) -> float:
    """Floor ``true_m`` to a multiple of ``quantum_m`` (0 disables)."""
    if not true_m >= 0.0:
        raise ValueError(f"distance must be >= 0: {true_m!r}")
    if not quantum_m >= 0.0:
        raise ValueError(f"quantum must be >= 0: {quantum_m!r}")
    if quantum_m == 0.0:
        return true_m
    return math.floor(true_m / quantum_m) * quantum_m


def fuzz_birthdate(true_date: date, user_id: str, seed: int) -> date:
    """True date shifted by a per-(user, seed) offset in [-7, +7] days.

    The offset is drawn once per (user_id, seed), so repeated queries within
    a scenario always see the same fuzzy date.
    """
    rng = random.Random(derive_seed(seed, "birthdate", user_id))
    return true_date + timedelta(days=rng.randint(-FUZZ_WINDOW_DAYS, FUZZ_WINDOW_DAYS))


class BoundingBox(Frozen):
    __slots__ = ("lat_min", "lon_min", "lat_max", "lon_max")

    def __init__(self, lat_min: float, lon_min: float, lat_max: float,
                 lon_max: float) -> None:
        for lat in (lat_min, lat_max):
            if not -90.0 <= lat <= 90.0:
                raise CoordinateError(f"latitude out of range [-90, 90]: {lat!r}")
        for lon in (lon_min, lon_max):
            if not -180.0 <= lon <= 180.0:
                raise CoordinateError(f"longitude out of range [-180, 180]: {lon!r}")
        if not (lat_min < lat_max and lon_min < lon_max):
            raise ValueError("bounding box must have positive extent")
        _set(self, "lat_min", lat_min)
        _set(self, "lon_min", lon_min)
        _set(self, "lat_max", lat_max)
        _set(self, "lon_max", lon_max)

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.lat_min + self.lat_max) / 2.0,
                        (self.lon_min + self.lon_max) / 2.0)

    def sample(self, rng: random.Random) -> GeoPoint:
        return GeoPoint(rng.uniform(self.lat_min, self.lat_max),
                        rng.uniform(self.lon_min, self.lon_max))

    def clamp(self, p: GeoPoint) -> GeoPoint:
        return GeoPoint(min(max(p.lat_deg, self.lat_min), self.lat_max),
                        min(max(p.lon_deg, self.lon_min), self.lon_max))


# Barcelona-ish default extent, a few km across.
DEFAULT_BBOX = BoundingBox(41.35, 2.10, 41.45, 2.25)


class PageCatalog:
    """Ranked page catalog: ``page_ids[r - 1]`` is the page of popularity
    rank r (1 = most popular), which carries sampling weight r**-zipf_s.
    Each page's category is drawn from ``n_categories`` under ``seed``."""

    def __init__(self, catalog_size: int, n_categories: int, zipf_s: float,
                 seed: int):
        rng = random.Random(derive_seed(seed, "catalog"))
        self.page_ids = [f"pg{r:05d}" for r in range(1, catalog_size + 1)]
        self._category = {p: f"cat{rng.randrange(n_categories):03d}"
                          for p in self.page_ids}
        # Cumulative rank weights, summed left to right.
        total = 0.0
        self._cum = []
        for r in range(1, catalog_size + 1):
            total += r ** (-zipf_s)
            self._cum.append(total)

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._category

    def category_of(self, page_id: str) -> str:
        return self._category[page_id]

    def sample_likes(self, count: int, rng: random.Random) -> set[str]:
        """``count`` distinct pages, rank-weighted by rank**-zipf_s, within
        the draw budget of ``MAX_DRAWS_PER_LIKE``."""
        page_ids = self.page_ids
        count = min(count, len(page_ids))
        chosen: set[str] = set()
        if count == 0:   # no draws; an empty catalog has no total
            return chosen
        cum = self._cum
        # random() < 1, so every draw is <= total and indexes a page.
        total = cum[-1]
        draw = rng.random
        add = chosen.add
        bisect_left = bisect.bisect_left
        for _ in range(MAX_DRAWS_PER_LIKE * count):
            if len(chosen) == count:
                return chosen
            add(page_ids[bisect_left(cum, draw() * total)])
        ranked = (p for p in page_ids if p not in chosen)
        chosen.update(islice(ranked, count - len(chosen)))
        return chosen


class Trajectory:
    """Time-ordered waypoints, piecewise-linear in the local plane.

    Before its first waypoint and after its last, the trajectory holds
    that waypoint's position, so it is defined at every time.
    """

    __slots__ = ("waypoints",)

    def __init__(self, waypoints: list[tuple[float, GeoPoint]]):
        if not waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        for (a, _), (b, _) in pairwise(waypoints):
            if b <= a:
                raise ValueError("waypoint timestamps must be strictly increasing")
        self.waypoints = list(waypoints)

    def position_at(self, t: float) -> GeoPoint:
        i = bisect.bisect_right(self.waypoints, t, key=itemgetter(0)) - 1
        if i < 0:
            return self.waypoints[0][1]
        if i >= len(self.waypoints) - 1:
            return self.waypoints[-1][1]
        ta, pa = self.waypoints[i]
        tb, pb = self.waypoints[i + 1]
        if t == ta:
            return pa
        frac = (t - ta) / (tb - ta)
        leg = to_enu(pb, pa)
        return from_enu(EnuPoint(frac * leg.x_m, frac * leg.y_m, pa))


def stationary_trajectory(p: GeoPoint) -> Trajectory:
    return Trajectory([(0.0, p)])


def commuter_trajectory(home: GeoPoint, work: GeoPoint, dwell_home_s: float,
                        travel_s: float, dwell_work_s: float) -> Trajectory:
    """Dwell at home, move linearly to work, dwell there and stay."""
    t1 = dwell_home_s
    t2 = t1 + travel_s
    t3 = t2 + dwell_work_s
    return Trajectory([(0.0, home), (t1, home), (t2, work), (t3, work)])


def random_walk_trajectory(start: GeoPoint, step_m: float, interval_s: float,
                           n_steps: int, rng: random.Random,
                           bbox: BoundingBox) -> Trajectory:
    waypoints = [(0.0, start)]
    p = start
    for k in range(1, n_steps + 1):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        q = bbox.clamp(from_enu(EnuPoint(step_m * math.cos(ang),
                                         step_m * math.sin(ang), p)))
        waypoints.append((k * interval_s, q))
        p = q
    return Trajectory(waypoints)


class SimUser:
    __slots__ = ("user_id", "first_name", "true_birthdate", "trajectory",
                 "likes", "social_id")

    def __init__(self, user_id: str, first_name: str, true_birthdate: date,
                 trajectory: Trajectory, likes: set[str], social_id: str):
        self.user_id = user_id
        self.first_name = first_name
        self.true_birthdate = true_birthdate
        self.trajectory = trajectory
        self.likes = likes
        self.social_id = social_id


class DisclosurePolicy(Frozen):
    """What the service reveals about each user, and how precisely."""

    __slots__ = ("share_distance", "distance_quantum_m", "share_first_name",
                 "birthdate_mode", "interests_mode", "share_social_id")

    def __init__(self, share_distance: bool = True,
                 distance_quantum_m: float = 100.0,
                 share_first_name: bool = True,
                 birthdate_mode: str = "fuzzy_15d",
                 interests_mode: str = "pages",
                 share_social_id: bool = False) -> None:
        if birthdate_mode not in BIRTHDATE_MODES:
            raise ValueError(f"bad birthdate_mode: {birthdate_mode!r}")
        if interests_mode not in INTERESTS_MODES:
            raise ValueError(f"bad interests_mode: {interests_mode!r}")
        if not 0.0 <= distance_quantum_m < math.inf:
            raise ValueError("distance_quantum_m must be finite and >= 0, "
                             f"got {distance_quantum_m!r}")
        # quantize_distance divides by the quantum, and no haversine_m
        # distance exceeds half the circumference.
        if (distance_quantum_m > 0.0 and not math.isfinite(
                math.pi * EARTH_RADIUS_M / distance_quantum_m)):
            raise ValueError("distance_quantum_m must be 0 or keep "
                             "pi * EARTH_RADIUS_M / distance_quantum_m finite, "
                             f"got {distance_quantum_m!r}")
        _set(self, "share_distance", share_distance)
        _set(self, "distance_quantum_m", distance_quantum_m)
        _set(self, "share_first_name", share_first_name)
        _set(self, "birthdate_mode", birthdate_mode)
        _set(self, "interests_mode", interests_mode)
        _set(self, "share_social_id", share_social_id)


# Feature matrices of well-known proximity apps, as policy presets. The
# quantization steps are illustrative defaults, not measured app behavior.
POLICY_PRESETS: dict[str, DisclosurePolicy] = {
    "tinder": DisclosurePolicy(share_distance=True, distance_quantum_m=100.0,
                               share_first_name=True, birthdate_mode="fuzzy_15d",
                               interests_mode="pages", share_social_id=False),
    "happn": DisclosurePolicy(share_distance=True, distance_quantum_m=250.0,
                              share_first_name=True, birthdate_mode="hidden",
                              interests_mode="pages", share_social_id=True),
    "lovoo": DisclosurePolicy(share_distance=True, distance_quantum_m=100.0,
                              share_first_name=True, birthdate_mode="hidden",
                              interests_mode="pages", share_social_id=False),
    "grindr": DisclosurePolicy(share_distance=False, distance_quantum_m=0.0,
                               share_first_name=False, birthdate_mode="hidden",
                               interests_mode="pages", share_social_id=False),
    "badoo": DisclosurePolicy(share_distance=True, distance_quantum_m=100.0,
                              share_first_name=True, birthdate_mode="hidden",
                              interests_mode="pages", share_social_id=False),
}


# Anchored users per grid cell that ``World``'s cell size aims for.
GRID_OCCUPANCY = 2.0
# Widening of a grid query's box, so that it never misses a user whom the
# exact ``haversine_m`` filter accepts. The relative margin on the angular
# radius covers rounding that grows as a circle nears a pole; the slack in
# degrees covers the longitude subtraction at the antimeridian, which
# rounds by ~1e-14 degrees whatever the radius. Neither alone is enough.
GRID_MARGIN = 1e-6
GRID_SLACK_DEG = 1e-9


class _CellGrid:
    """Anchored users by lat/lon cell, and the movers every query scans.

    Rows are ``cell_deg`` of latitude. The ``n_cols`` columns split 360
    degrees of longitude evenly, so column indices wrap at the antimeridian.
    """

    def __init__(self, cell_deg: float):
        self.cell_deg = cell_deg
        self.n_cols = max(1, int(360.0 // cell_deg))
        self.col_deg = 360.0 / self.n_cols
        self.cells: dict[tuple[int, int], list[SimUser]] = {}
        self.movers: dict[str, SimUser] = {}

    def row(self, lat_deg: float) -> int:
        return math.floor(lat_deg / self.cell_deg)

    def col(self, lon_deg: float) -> int:
        return math.floor((lon_deg + 180.0) / self.col_deg)

    def key(self, p: GeoPoint) -> tuple[int, int]:
        return self.row(p.lat_deg), self.col(p.lon_deg) % self.n_cols


class World:
    """Ground truth plus the single simulation clock that owns it.

    Users whose position cannot change (one waypoint, no override) are
    anchored in a cell grid, built on the first radius-bounded query;
    trajectories change only through :meth:`set_trajectory`, which keeps
    the grid right.
    """

    def __init__(self, users: dict[str, SimUser], catalog: PageCatalog,
                 bbox: BoundingBox, seed: int):
        self.users = users
        self.catalog = catalog
        self.bbox = bbox
        self.seed = seed
        self.now_s = 0.0
        self._overrides: dict[str, GeoPoint] = {}
        self._grid: _CellGrid | None = None

    def advance(self, dt_s: float) -> float:
        if not dt_s >= 0.0:
            raise ValueError("the clock only moves forward")
        self.now_s += dt_s
        return self.now_s

    def position_of(self, user_id: str) -> GeoPoint:
        """Service-visible position now: explicit override if set, else
        trajectory."""
        if user_id in self._overrides:
            return self._overrides[user_id]
        return self.true_position_of(user_id)

    def true_position_of(self, user_id: str) -> GeoPoint:
        """Trajectory ground truth now, ignoring any manual location override."""
        return self.users[user_id].trajectory.position_at(self.now_s)

    def set_override(self, user_id: str, p: GeoPoint) -> None:
        self._unanchor(user_id)
        self._overrides[user_id] = p

    def set_trajectory(self, user_id: str, trajectory: Trajectory) -> None:
        self._unanchor(user_id)
        self.users[user_id].trajectory = trajectory

    def add_likes(self, user_id: str, pages: set[str]) -> None:
        unknown = {p for p in pages if p not in self.catalog}
        if unknown:
            raise ValueError(f"pages not in catalog: {sorted(unknown)!r}")
        self.users[user_id].likes |= set(pages)

    def add_user(self, user: SimUser) -> None:
        if user.user_id in self.users:
            raise ValueError(f"duplicate user_id {user.user_id!r}")
        if any(u.social_id == user.social_id for u in self.users.values()):
            raise ValueError(f"duplicate social_id {user.social_id!r}")
        bad = {p for p in user.likes if p not in self.catalog}
        if bad:
            raise ValueError(f"likes outside catalog: {sorted(bad)!r}")
        self.users[user.user_id] = user
        if self._grid is not None:
            self._place(user)

    def candidates_within(self, p: GeoPoint, radius_m: float) -> Iterable[SimUser]:
        """A superset of the users within ``radius_m`` of ``p``.

        The members of the grid cells that a conservative degree box around
        ``p`` touches, plus the movers; every user, in insertion order, when
        the box reaches a pole or covers more cells than are occupied.
        """
        # Bounding coordinates of a spherical cap (Matuschek): every point
        # within angular distance theta of (phi, lam) has |dphi| <= theta
        # and |dlam| <= asin(sin(theta) / cos(phi)).
        theta = radius_m / EARTH_RADIUS_M * (1.0 + GRID_MARGIN)
        phi = math.radians(p.lat_deg)
        if not abs(phi) + theta < math.pi / 2.0:   # also NaN and inf radii
            return self.users.values()
        grid = self._grid if self._grid is not None else self._build_grid()
        # A cap that misses the pole spans at most 90 degrees either way.
        sin_dlon = min(1.0, math.sin(theta) / math.cos(phi))
        dlat = math.degrees(theta) + GRID_SLACK_DEG
        dlon = math.degrees(math.asin(sin_dlon)) + GRID_SLACK_DEG
        rows = range(grid.row(p.lat_deg - dlat), grid.row(p.lat_deg + dlat) + 1)
        c0 = grid.col(p.lon_deg - dlon)
        c1 = grid.col(p.lon_deg + dlon)
        cols = range(grid.n_cols) if c1 - c0 + 1 >= grid.n_cols else [
            c % grid.n_cols for c in range(c0, c1 + 1)]
        if len(rows) * len(cols) > len(grid.cells):
            return self.users.values()
        out = list(grid.movers.values())
        cells = grid.cells
        for r in rows:
            for c in cols:
                cell = cells.get((r, c))
                if cell:
                    out += cell
        return out

    def _anchor(self, user: SimUser) -> GeoPoint | None:
        """The fixed position of a user that cannot move, else None."""
        waypoints = user.trajectory.waypoints
        if len(waypoints) != 1 or user.user_id in self._overrides:
            return None
        return waypoints[0][1]

    def _place(self, user: SimUser) -> None:
        anchor = self._anchor(user)
        if anchor is None:
            self._grid.movers[user.user_id] = user
        else:
            self._grid.cells.setdefault(self._grid.key(anchor), []).append(user)

    def _build_grid(self) -> _CellGrid:
        anchored = sum(self._anchor(u) is not None for u in self.users.values())
        b = self.bbox
        area = (b.lat_max - b.lat_min) * (b.lon_max - b.lon_min)
        # No query box is narrower than twice the slack, so no cell need be.
        self._grid = _CellGrid(max(GRID_SLACK_DEG, math.sqrt(
            area * GRID_OCCUPANCY / max(1, anchored))))
        for user in self.users.values():
            self._place(user)
        return self._grid

    def _unanchor(self, user_id: str) -> None:
        """Make ``user_id`` a mover before its position source changes."""
        grid = self._grid
        if grid is None or user_id in grid.movers or user_id not in self.users:
            return
        user = self.users[user_id]
        key = grid.key(self._anchor(user))
        cell = grid.cells[key]
        cell.remove(user)
        if not cell:
            del grid.cells[key]
        grid.movers[user_id] = user


def _bounded_geometric(rng: random.Random, mean: float, cap: int) -> int:
    # P(k) ~ (1-q) q^k on {0, 1, ...} with mean q/(1-q) = mean, capped.
    if mean <= 0.0:
        return 0
    q = mean / (1.0 + mean)
    u = rng.random()
    if q == 1.0:
        # A mean this large rounds q to 1, so log(q) is 0; as q -> 1 the
        # capped law puts all its mass on the cap.
        return cap
    k = int(math.log(1.0 - u) / math.log(q)) if u > 0.0 else 0
    return min(k, cap)


def generate_population(n: int, catalog_size: int, zipf_s: float, seed: int,
                        bbox: BoundingBox = DEFAULT_BBOX,
                        mean_likes: float = 3.0,
                        n_categories: int = 25) -> World:
    """Build a fully deterministic world of ``n`` stationary users.

    Positions are uniform in ``bbox``; per-user like counts follow a bounded
    geometric law with the given mean; likes are drawn without replacement
    from the catalog with rank weight rank**-zipf_s. Each user draws from
    one generator seeded with ``derive_seed(seed, "user", user_id)``.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    if zipf_s <= 0.0:
        raise ValueError("zipf_s must be > 0")
    catalog = PageCatalog(catalog_size, n_categories, zipf_s, seed)
    users: dict[str, SimUser] = {}
    ord_lo, ord_hi = BIRTH_RANGE[0].toordinal(), BIRTH_RANGE[1].toordinal()
    max_likes = min(MAX_LIKES_PER_USER, catalog_size)
    # derive_seed(seed, "user", uid) hashes repr((seed, "user", uid)); a
    # user id is "u" and digits, so its repr is the id in single quotes.
    head = repr((seed, "user", ""))[:-3]
    # Re-seeding leaves the state a new Random(s) would have.
    rng = random.Random()
    for i in range(n):
        uid = f"u{i:05d}"
        rng.seed(_text_seed(f"{head}'{uid}')"))
        pos = bbox.sample(rng)
        n_likes = _bounded_geometric(rng, mean_likes, max_likes)
        users[uid] = SimUser(
            user_id=uid,
            first_name=rng.choice(FIRST_NAMES),
            true_birthdate=date.fromordinal(rng.randint(ord_lo, ord_hi)),
            trajectory=stationary_trajectory(pos),
            likes=catalog.sample_likes(n_likes, rng),
            social_id=f"fb{i:07d}",
        )
    return World(users=users, catalog=catalog, bbox=bbox, seed=seed)
