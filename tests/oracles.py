"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: distances via the
spherical law of cosines, the solver objective minimized by exhaustive
grid scan (numpy), and query operations re-done as plain brute-force
filters. ``scan_nearby`` is ``nearby`` as it was before the cell grid,
on the package's own distance and rendering. ``brute_identify`` is the
identification loop as it was before the social graph was indexed: every
query scans the whole population. ``oracle_catalog``, ``oracle_sample_likes``
and ``oracle_population`` are ``PageCatalog`` and ``generate_population`` as
they were before the build paused the garbage collector and bound its
lookups locally; they share only the unchanged draw helpers with the package.
``loop_objective_value`` and ``loop_solve_pattern`` are the pure-Python
solver kernel as it was before it scored a whole compass ring per pass:
one pass over the samples per candidate point. ``scan_extract_pois`` is
``extract_pois`` as it was before windows kept a bounding box: every
extension re-checks every fix of the window. ``times_position_at`` is
``Trajectory.position_at`` as it was when a trajectory kept a second list
of its waypoint times.
"""

import bisect
import math
import random
from datetime import date
from itertools import islice
from math import fabs, sqrt

import numpy as np

from proxileak.attacker import Poi
from proxileak.geo import EnuPoint, GeoPoint, from_enu, haversine_m, to_enu
from proxileak.socialgraph import IdentificationResult, candidate_birth_years
from proxileak.world import (BIRTH_RANGE, FIRST_NAMES, MAX_DRAWS_PER_LIKE,
                             MAX_LIKES_PER_USER, _bounded_geometric,
                             derive_seed, quantize_distance)

EARTH_RADIUS_M = 6_371_008.8

# No great-circle distance exceeds half the circumference, so a nearby
# query of this radius sees the whole world wherever the bbox lies: the
# users that the discovery sweep's ProximityService.discover marks.
DISCOVER_RADIUS_M = math.pi * EARTH_RADIUS_M


def law_of_cosines_m(lat1, lon1, lat2, lon2):
    """Great-circle distance via the spherical law of cosines."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = (math.sin(p1) * math.sin(p2)
         + math.cos(p1) * math.cos(p2) * math.cos(dl))
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, c)))


def grid_search_min(obs_x, obs_y, dists, norm, x_lo, x_hi, y_lo, y_hi,
                    cell=1.0, block_rows=512):
    """Exhaustive scan of the mean-residual objective on a regular grid.

    Returns (min_objective, (x, y)) over grid points spaced ``cell`` apart,
    inclusive of both field edges.
    """
    obs_x = np.asarray(obs_x, dtype=np.float64)
    obs_y = np.asarray(obs_y, dtype=np.float64)
    dists = np.asarray(dists, dtype=np.float64)
    gx = x_lo + cell * np.arange(int(round((x_hi - x_lo) / cell)) + 1)
    gy = y_lo + cell * np.arange(int(round((y_hi - y_lo) / cell)) + 1)
    best_val = math.inf
    best_xy = (gx[0], gy[0])
    for r0 in range(0, len(gy), block_rows):
        rows = gy[r0:r0 + block_rows]
        acc = np.zeros((len(rows), len(gx)))
        for ox, oy, d in zip(obs_x, obs_y, dists):
            dx2 = (gx - ox) ** 2
            dy2 = (rows - oy) ** 2
            r = np.sqrt(dy2[:, None] + dx2[None, :]) - d
            if norm == "l1":
                acc += np.abs(r)
            else:
                acc += r * r
        acc /= len(dists)
        idx = int(np.argmin(acc))
        i, j = divmod(idx, len(gx))
        if acc[i, j] < best_val:
            best_val = float(acc[i, j])
            best_xy = (float(gx[j]), float(rows[i]))
    return best_val, best_xy


NORM_L1 = 0

# Axis moves first, then diagonals; order matters for tie-breaking parity.
_DIRS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
         (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def loop_objective_value(obs_x, obs_y, dist, px, py, norm_code):
    """Per-sample-normalized residual norm of point (px, py)."""
    n = len(obs_x)
    acc = 0.0
    for i in range(n):
        dx = px - obs_x[i]
        dy = py - obs_y[i]
        r = sqrt(dx * dx + dy * dy) - dist[i]
        if norm_code == NORM_L1:
            acc += fabs(r)
        else:
            acc += r * r
    return acc / n


def loop_solve_pattern(obs_x, obs_y, dist, x0, y0, step_init, tol, max_iter,
                       norm_code):
    """Compass/pattern search with step halving, one candidate per pass."""
    cx = x0
    cy = y0
    fc = loop_objective_value(obs_x, obs_y, dist, cx, cy, norm_code)
    step = step_init
    it = 0
    while it < max_iter:
        it += 1
        improved = False
        bf = fc
        bx = cx
        by = cy
        for ux, uy in _DIRS:
            nx = cx + step * ux
            ny = cy + step * uy
            f = loop_objective_value(obs_x, obs_y, dist, nx, ny, norm_code)
            if f < bf or (improved and f == bf and (nx < bx or (nx == bx and ny < by))):
                improved = True
                bf = f
                bx = nx
                by = ny
        if improved:
            cx = bx
            cy = by
            fc = bf
        else:
            step *= 0.5
            if tol > 0.0 and step < tol:
                break
    return cx, cy, fc, it


def scan_nearby(service, session, radius_m):
    """``ProximityService.nearby`` as it was before the cell grid: the
    exact filter over every user in the world, then the same sort, the
    same ``session.discovered`` updates and the same rendering."""
    if radius_m <= 0.0:
        raise ValueError("radius_m must be > 0")
    world = service.world
    me = world.position_of(session.user_id)
    requester = world.users[session.user_id]
    hits = []
    for uid, user in world.users.items():
        if uid == session.user_id:
            continue
        d = haversine_m(me, world.position_of(uid))
        if d <= radius_m:
            hits.append((quantize_distance(d, service.policy.distance_quantum_m),
                         uid, user, d))
    hits.sort(key=lambda h: (h[0], h[1]))
    out = []
    for qd, uid, user, d in hits:
        session.discovered.add(uid)
        out.append(service._render(requester, user, qd))
    return out


def times_position_at(waypoints, t):
    """The position at ``t`` on the ``(time, GeoPoint)`` waypoints, found by
    bisecting a separate list of their times."""
    times = [wt for wt, _ in waypoints]
    i = bisect.bisect_right(times, t) - 1
    if i < 0:
        return waypoints[0][1]
    if i >= len(waypoints) - 1:
        return waypoints[-1][1]
    ta, pa = waypoints[i]
    tb, pb = waypoints[i + 1]
    if t == ta:
        return pa
    frac = (t - ta) / (tb - ta)
    leg = to_enu(pb, pa)
    return from_enu(EnuPoint(frac * leg.x_m, frac * leg.y_m, pa))


def brute_matching(population, q):
    """The users matching ``GraphQuery`` ``q``, in input order, by a full scan."""
    return [u for u in population
            if (q.name is None or u.first_name.lower() == q.name.lower())
            and (q.birth_years is None or u.true_birthdate.year in q.birth_years)
            and q.liked_pages <= u.likes]


def brute_forward(population, name, birth_years, liked_pages):
    out = set()
    for u in population:
        if name is not None and u.first_name.lower() != name.lower():
            continue
        if birth_years is not None and u.true_birthdate.year not in birth_years:
            continue
        if not set(liked_pages) <= u.likes:
            continue
        out.add(u.social_id)
    return out


def brute_reverse(population, name, birth_years, liked_pages):
    pages = set()
    for u in population:
        if name is not None and u.first_name.lower() != name.lower():
            continue
        if birth_years is not None and u.true_birthdate.year not in birth_years:
            continue
        if not set(liked_pages) <= u.likes:
            continue
        pages |= u.likes
    return pages - set(liked_pages)


def brute_identify(victim_view, population, max_rounds=10, batch_size=10,
                   like_and_refresh=None, interests_are_pages=True,
                   birthdate_is_fuzzy=True):
    """``socialgraph.identify`` by full scans (no trace)."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    population = list(population)
    users_by_social = {u.social_id: u for u in population}

    if victim_view.social_id is not None:
        return IdentificationResult([frozenset([victim_view.social_id])])

    name = victim_view.first_name
    known = set(victim_view.common_likes or ()) if interests_are_pages else set()
    years = None
    if victim_view.fuzzy_birthdate is not None:
        years = candidate_birth_years(victim_view.fuzzy_birthdate, birthdate_is_fuzzy)

    pool = brute_forward(population, name, years, known)
    pools = [frozenset(pool)]
    tried = set(known)
    for _ in range(max_rounds):
        if len(pool) <= 1:
            break
        if not interests_are_pages or like_and_refresh is None:
            break
        candidates = brute_reverse(population, name, years, known) - tried
        if not candidates:
            break
        freq = {p: 0 for p in candidates}
        for sid in pool:
            for p in users_by_social[sid].likes:
                if p in freq:
                    freq[p] += 1
        half = len(pool) / 2.0
        batch = set(sorted(candidates,
                           key=lambda p: (abs(freq[p] - half), p))[:batch_size])
        tried |= batch
        view = like_and_refresh(batch)
        known |= set(view.common_likes or ())
        pool = brute_forward(population, name, years, known)
        pools.append(frozenset(pool))
    return IdentificationResult(pools)


def oracle_catalog(catalog_size, n_categories, zipf_s, seed):
    """``PageCatalog``'s page ids, page categories and cumulative weights."""
    rng = random.Random(derive_seed(seed, "catalog"))
    page_ids = [f"pg{r:05d}" for r in range(1, catalog_size + 1)]
    categories = {p: f"cat{rng.randrange(n_categories):03d}" for p in page_ids}
    total = 0.0
    cum = []
    for r in range(1, catalog_size + 1):
        total += r ** (-zipf_s)
        cum.append(total)
    return page_ids, categories, cum


def oracle_sample_likes(page_ids, cum, count, rng):
    """``PageCatalog.sample_likes`` over ``oracle_catalog``'s lists."""
    count = min(count, len(page_ids))
    chosen = set()
    for _ in range(MAX_DRAWS_PER_LIKE * count):
        if len(chosen) == count:
            return chosen
        u = rng.random() * cum[-1]
        idx = bisect.bisect_left(cum, u)
        chosen.add(page_ids[min(idx, len(page_ids) - 1)])
    ranked = (p for p in page_ids if p not in chosen)
    chosen.update(islice(ranked, count - len(chosen)))
    return chosen


def oracle_population(n, catalog_size, zipf_s, seed, bbox, mean_likes,
                      n_categories):
    """``generate_population``'s catalog and users, the users as
    ``(user_id, first_name, true_birthdate, waypoints, likes, social_id)``."""
    page_ids, categories, cum = oracle_catalog(catalog_size, n_categories,
                                               zipf_s, seed)
    users = []
    ord_lo, ord_hi = BIRTH_RANGE[0].toordinal(), BIRTH_RANGE[1].toordinal()
    for i in range(n):
        uid = f"u{i:05d}"
        rng = random.Random(derive_seed(seed, "user", uid))
        pos = GeoPoint(rng.uniform(bbox.lat_min, bbox.lat_max),
                       rng.uniform(bbox.lon_min, bbox.lon_max))
        n_likes = _bounded_geometric(rng, mean_likes,
                                     min(MAX_LIKES_PER_USER, catalog_size))
        users.append((
            uid,
            rng.choice(FIRST_NAMES),
            date.fromordinal(rng.randint(ord_lo, ord_hi)),
            [(0.0, pos)],
            oracle_sample_likes(page_ids, cum, n_likes, rng),
            f"fb{i:07d}",
        ))
    return page_ids, categories, users


def scan_extract_pois(track, radius_m, min_dwell_s):
    """``extract_pois`` with a check of every fix per window extension."""
    if radius_m <= 0.0 or min_dwell_s < 0.0:
        raise ValueError("radius_m must be > 0 and min_dwell_s >= 0")
    pts = [(t, est.p_hat) for t, est in track.estimates]
    if not pts:
        return []
    ref = pts[0][1].ref
    pois = []
    i = 0
    while i < len(pts):
        sx = 0.0 + pts[i][1].x_m
        sy = 0.0 + pts[i][1].y_m
        j = i
        while j + 1 < len(pts):
            p = pts[j + 1][1]
            tx = sx + p.x_m
            ty = sy + p.y_m
            size = j + 2 - i
            cx = tx / size
            cy = ty / size
            if all(math.hypot(q.x_m - cx, q.y_m - cy) <= radius_m
                   for _, q in pts[i:j + 2]):
                sx = tx
                sy = ty
                j += 1
            else:
                break
        window = pts[i:j + 1]
        cx = sx / len(window)
        cy = sy / len(window)
        span = window[-1][0] - window[0][0]
        if span >= min_dwell_s and len(window) > 1:
            pois.append(Poi(EnuPoint(cx, cy, ref), span,
                            window[0][0], window[-1][0], len(window)))
        i = j + 1
    return pois
