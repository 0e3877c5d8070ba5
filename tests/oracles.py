"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: distances via the
spherical law of cosines, the solver objective minimized by exhaustive
grid scan (numpy), and query operations re-done as plain brute-force
filters. ``brute_identify`` is the identification loop as it was before
the social graph was indexed: every query scans the whole population.
``loop_objective_value`` and ``loop_solve_pattern`` are the pure-Python
solver kernel as it was before it scored a whole compass ring per pass:
one pass over the samples per candidate point.
"""

import math
from math import fabs, sqrt

import numpy as np

from proxileak.socialgraph import (CandidatePool, IdentificationResult,
                                   InsufficientSelectorsError,
                                   candidate_birth_years)

EARTH_RADIUS_M = 6_371_008.8


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


def brute_nearby(world, requester_id, radius_m, haversine):
    """All user ids within radius of the requester's visible position."""
    me = world.position_of(requester_id)
    out = []
    for uid in world.users:
        if uid == requester_id:
            continue
        if haversine(me, world.position_of(uid)) <= radius_m:
            out.append(uid)
    return set(out)


def brute_forward(population, name, birth_year, liked_pages):
    out = set()
    for u in population:
        if name is not None and u.first_name.lower() != name.lower():
            continue
        if birth_year is not None and u.true_birthdate.year != birth_year:
            continue
        if not set(liked_pages) <= u.likes:
            continue
        out.add(u.social_id)
    return out


def brute_reverse(population, name, birth_year, liked_pages):
    pages = set()
    for u in population:
        if name is not None and u.first_name.lower() != name.lower():
            continue
        if birth_year is not None and u.true_birthdate.year != birth_year:
            continue
        if not set(liked_pages) <= u.likes:
            continue
        pages |= u.likes
    return pages - set(liked_pages)


def brute_selector_members(events, selector, haversine):
    """Event ids satisfying a selector, re-evaluated from scratch."""
    out = set()
    for ev in events:
        if selector.kind == "within_radius":
            ok = (ev.kind == "location_update"
                  and selector.t_start <= ev.t <= selector.t_end
                  and haversine(selector.center, ev.payload) <= selector.radius_m)
        elif selector.kind == "likes_page":
            ok = ev.kind == "like" and ev.payload == selector.page_id
        else:
            ok = ev.identity_id == selector.identity_id
        if ok:
            out.add(ev.event_id)
    return out


def _brute_pool(population, name, years, pages):
    if years is None:
        return brute_forward(population, name, None, pages)
    out = set()
    for y in sorted(years):
        out |= brute_forward(population, name, y, pages)
    return out


def brute_identify(victim_view, population, max_rounds=10, batch_size=10,
                   like_and_refresh=None, interests_are_pages=True,
                   birthdate_is_fuzzy=True):
    """``socialgraph.identify`` by full scans (no trace)."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    population = list(population)
    users_by_social = {u.social_id: u for u in population}

    if victim_view.social_id is not None:
        return IdentificationResult(victim_view.social_id, [1], 0, True, False,
                                    [CandidatePool(0, frozenset([victim_view.social_id]),
                                                   frozenset())])

    name = victim_view.first_name
    known = set(victim_view.common_likes or ()) if interests_are_pages else set()
    if name is None and not known:
        raise InsufficientSelectorsError(
            "view has neither a first name nor usable likes")
    years = None
    if victim_view.fuzzy_birthdate is not None:
        years = candidate_birth_years(victim_view.fuzzy_birthdate, birthdate_is_fuzzy)

    pool = _brute_pool(population, name, years, known)
    pools = [CandidatePool(0, frozenset(pool), frozenset(known))]
    pool_sizes = [len(pool)]
    tried = set(known)
    rounds_used = 0
    stalled = False
    for rnd in range(1, max_rounds + 1):
        if len(pool) <= 1:
            break
        if not interests_are_pages or like_and_refresh is None:
            stalled = True
            break
        candidates = set()
        for y in ([None] if years is None else sorted(years)):
            candidates |= brute_reverse(population, name, y, known)
        candidates -= tried
        if not candidates:
            stalled = True
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
        pool = _brute_pool(population, name, years, known)
        rounds_used = rnd
        pool_sizes.append(len(pool))
        pools.append(CandidatePool(rnd, frozenset(pool), frozenset(known)))

    identified = len(pool) == 1
    social_id = next(iter(pool)) if identified else None
    return IdentificationResult(social_id, pool_sizes, rounds_used, identified,
                                stalled, pools)
