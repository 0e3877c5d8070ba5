"""The adversary agent.

The attacker is an ordinary service client: it moves its own account
around, polls a target's profile for the quantized distance, and feeds the
collected samples to the position solver. Longitudinal tracking repeats
the fix at a fixed cadence and extracts stay points (POIs) from the
estimate series. Everything here sees the world only through the service
API; ground truth is never consulted (tests assert this by scanning the
module source).
"""

from __future__ import annotations

import math
from array import array
from typing import Callable

from .geo import EnuPoint, Frozen, GeoPoint, _set, from_enu, to_enu
from .mlat import (DegenerateGeometryError, DistanceSample, PositionEstimate,
                   SolverConfig, UnderdeterminedError, multilaterate)
from .report import AttackTrace, TraceEvent
from .service import ProximityService, Session

__all__ = [
    "ProbePlan", "TrackRecord", "Poi", "PolicyBlockedError", "Attacker",
    "extract_pois", "PROBE_STRATEGIES",
]

PROBE_STRATEGIES = ("ring", "adaptive")

ADAPTIVE_ROUNDS = 2  # rings an adaptive plan spreads its probe budget over

# Distinct solver inputs an attacker remembers the estimate of. A dwell
# often re-reads the last fix's distances from the same probes; an
# adaptive fix solves twice, so it needs a few entries to catch both.
SOLVE_MEMO_SIZE = 8


class PolicyBlockedError(RuntimeError):
    """The service does not disclose what this attack needs."""


class ProbePlan(Frozen):
    """Where the attacker stands while sampling the target's distance.

    ``ring`` places ``count`` equally spaced probes on a circle around
    ``center`` (rotated by ``angle0_rad``); ``adaptive`` spends the same
    budget over ``ADAPTIVE_ROUNDS`` rings, re-centering and halving the
    radius on the running estimate.
    """

    __slots__ = ("strategy", "count", "ring_radius_m", "center", "angle0_rad")

    def __init__(self, strategy: str = "ring", count: int = 16,
                 ring_radius_m: float = 1000.0, center: GeoPoint | None = None,
                 angle0_rad: float = 0.0) -> None:
        if strategy not in PROBE_STRATEGIES:
            raise ValueError(f"unknown probe strategy {strategy!r}")
        if count < 3:
            raise ValueError("localization plans need at least 3 probes")
        if center is None:
            raise ValueError("ring plans need a center")
        if ring_radius_m <= 0.0:
            raise ValueError("ring radius must be > 0")
        _set(self, "strategy", strategy)
        _set(self, "count", count)
        _set(self, "ring_radius_m", ring_radius_m)
        _set(self, "center", center)
        _set(self, "angle0_rad", angle0_rad)


def ring_points(center: GeoPoint, radius_m: float, count: int,
                angle0_rad: float = 0.0) -> list[GeoPoint]:
    out = []
    for i in range(count):
        a = angle0_rad + 2.0 * math.pi * i / count
        out.append(from_enu(EnuPoint(radius_m * math.cos(a),
                                     radius_m * math.sin(a), center)))
    return out


class Poi(Frozen):
    __slots__ = ("center", "dwell_s", "t_start", "t_end", "n_fixes")

    def __init__(self, center: EnuPoint, dwell_s: float, t_start: float,
                 t_end: float, n_fixes: int) -> None:
        _set(self, "center", center)
        _set(self, "dwell_s", dwell_s)
        _set(self, "t_start", t_start)
        _set(self, "t_end", t_end)
        _set(self, "n_fixes", n_fixes)


class TrackRecord:
    def __init__(self):
        self.estimates: list[tuple[float, PositionEstimate]] = []
        self.gaps: list[float] = []

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.estimates, self.gaps) == (other.estimates, other.gaps)
        return NotImplemented

    def add(self, t: float, est: PositionEstimate) -> None:
        if self.estimates and t <= self.estimates[-1][0]:
            raise ValueError("estimate timestamps must be strictly increasing")
        self.estimates.append((t, est))


class Attacker:
    """A sequential attacking client bound to one service session.

    ``ref`` anchors the attacker's working plane (any point near the scene
    works). ``advance`` is the scenario's clock hook: tracking calls it to
    let simulated time pass between fixes. Without a ``trace`` the attacker
    logs into a fresh one of its own.
    """

    def __init__(self, service: ProximityService, session: Session,
                 ref: GeoPoint, advance: Callable[[float], float],
                 trace: AttackTrace | None = None):
        self.service = service
        self.session = session
        self.ref = ref
        self.trace = trace if trace is not None else AttackTrace()
        self._advance = advance
        self.last_samples: list[DistanceSample] = []
        self._solved: dict[tuple[bytes, SolverConfig], PositionEstimate] = {}

    # -- acquisition -------------------------------------------------------

    def sample_distance(self, target_id: str, probe: GeoPoint) -> DistanceSample:
        """Move to ``probe``, poll the target, return the observation."""
        self.service.update_location(self.session, probe)
        entry = self.service.profile(self.session, target_id)
        if entry.distance_m is None:
            raise PolicyBlockedError(
                "service does not share distances; localization is impossible")
        t = entry.last_active_t
        self.trace.append(TraceEvent("probe", t, target_id))
        self.trace.append(TraceEvent("profile_poll", t, target_id))
        return DistanceSample(to_enu(probe, self.ref), entry.distance_m, t,
                              self.service.policy.distance_quantum_m)

    def _solve(self, samples: list[DistanceSample],
               cfg: SolverConfig) -> PositionEstimate:
        """``multilaterate(samples, cfg)``, from memory if a recent call had
        the same inputs.

        The key holds, bit for bit, every number the solver reads from the
        samples: so ``-0.0`` and ``0.0``, or two references, never share an
        entry. A solver error is raised again on every call, never stored.
        The oldest entry goes once ``SOLVE_MEMO_SIZE`` are held.
        """
        key = (array("d", [v for s in samples for v in (
            s.observer.x_m, s.observer.y_m, s.reported_m,
            s.observer.ref.lat_deg, s.observer.ref.lon_deg)]).tobytes(), cfg)
        est = self._solved.get(key)
        if est is None:
            est = multilaterate(samples, cfg)
            if len(self._solved) >= SOLVE_MEMO_SIZE:
                del self._solved[next(iter(self._solved))]
            self._solved[key] = est
        return est

    # -- attacks -----------------------------------------------------------

    def localize(self, target_id: str, plan: ProbePlan,
                 cfg: SolverConfig) -> PositionEstimate:
        """One position fix: sample the plan's rings, solve over all samples.

        A ring plan is one round of ``count`` probes. An adaptive plan
        spreads them over its rounds; before each later round it solves
        over the samples so far, re-centers on that estimate and halves
        the radius (down to 50 m). The last round takes the remainder.
        Every probe is moved to and polled; a solve whose inputs repeat a
        recent one's reuses its estimate (see ``_solve``).
        """
        rounds = (1 if plan.strategy == "ring"
                  else min(ADAPTIVE_ROUNDS, plan.count // 3))
        per_round = plan.count // rounds
        center, radius = plan.center, plan.ring_radius_m
        samples: list[DistanceSample] = []
        for r in range(rounds):
            if r > 0:
                center = from_enu(self._solve(samples, cfg).p_hat)
                radius = max(radius / 2.0, 50.0)
            n = per_round if r < rounds - 1 else plan.count - per_round * r
            samples += [self.sample_distance(target_id, p)
                        for p in ring_points(center, radius, n, plan.angle0_rad)]
        est = self._solve(samples, cfg)
        self.last_samples = samples
        self.trace.append(TraceEvent("localize_result", samples[-1].t,
                                     target_id))
        return est

    def track(self, target_id: str, interval_s: float, duration_s: float,
              plan: ProbePlan, cfg: SolverConfig) -> TrackRecord:
        """Fix the target every ``interval_s`` of simulated time.

        Each fix re-centers the plan on the previous estimate, so the
        attacker keeps touch with a moving target without any outside help.
        A fix lost to degenerate solver geometry is recorded as a gap and
        tracking continues; a policy block aborts the whole track.
        """
        if interval_s <= 0.0:
            raise ValueError("interval_s must be > 0")
        if duration_s < 0.0:
            raise ValueError("duration_s must be >= 0")
        record = TrackRecord()
        n_fixes = 1 + int(duration_s // interval_s)
        current = plan
        for k in range(n_fixes):
            if k > 0:
                self._advance(interval_s)
            try:
                est = self.localize(target_id, current, cfg)
            except (UnderdeterminedError, DegenerateGeometryError):
                record.gaps.append(k * interval_s)
                continue
            record.add(self.last_samples[-1].t, est)
            current = ProbePlan(current.strategy, current.count,
                                current.ring_radius_m, from_enu(est.p_hat),
                                current.angle0_rad)
        return record


def extract_pois(track: TrackRecord, radius_m: float,
                 min_dwell_s: float) -> list[Poi]:
    """Stay-point detection over the estimate series.

    The track is partitioned into maximal windows whose fixes all lie
    within ``radius_m`` of the window centroid; each window spanning at
    least ``min_dwell_s`` yields one POI at that centroid.

    A window grows one fix at a time. The extension is accepted without
    visiting the window's fixes when the corner of their bounding box
    farthest from the new centroid is within ``radius_m * (1 - 1e-9)``:
    every fix lies in the box, and the margin covers ``hypot``'s rounding.
    Otherwise each fix is checked, so a stay costs time linear in its
    length unless its fixes sit near the radius.
    """
    if radius_m <= 0.0 or min_dwell_s < 0.0:
        raise ValueError("radius_m must be > 0 and min_dwell_s >= 0")
    pts = [(t, est.p_hat) for t, est in track.estimates]
    if not pts:
        return []
    ref = pts[0][1].ref
    safe_m = radius_m * (1.0 - 1e-9)
    pois: list[Poi] = []
    i = 0
    while i < len(pts):
        # Left-to-right running sums of the window pts[i:j + 1], started
        # from 0.0 like sum(). Not sum() itself: since Python 3.12 it
        # compensates float rounding, so centroids would depend on the
        # Python version.
        p = pts[i][1]
        sx = 0.0 + p.x_m
        sy = 0.0 + p.y_m
        x_lo = x_hi = p.x_m
        y_lo = y_hi = p.y_m
        j = i
        while j + 1 < len(pts):
            p = pts[j + 1][1]
            tx = sx + p.x_m
            ty = sy + p.y_m
            size = j + 2 - i
            cx = tx / size
            cy = ty / size
            # A rejected fix ends the window, so the box may take it first.
            x_lo, x_hi = min(x_lo, p.x_m), max(x_hi, p.x_m)
            y_lo, y_hi = min(y_lo, p.y_m), max(y_hi, p.y_m)
            if not (math.hypot(max(cx - x_lo, x_hi - cx),
                               max(cy - y_lo, y_hi - cy)) <= safe_m
                    or all(math.hypot(q.x_m - cx, q.y_m - cy) <= radius_m
                           for _, q in pts[i:j + 2])):
                break
            sx, sy = tx, ty
            j += 1
        window = pts[i:j + 1]
        cx = sx / len(window)
        cy = sy / len(window)
        span = window[-1][0] - window[0][0]
        if span >= min_dwell_s and len(window) > 1:
            pois.append(Poi(EnuPoint(cx, cy, ref), span,
                            window[0][0], window[-1][0], len(window)))
        i = j + 1
    return pois
